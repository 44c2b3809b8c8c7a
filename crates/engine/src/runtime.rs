//! The scheduler/executor thread and its client handle.
//!
//! **One policy, two drivers.** Which transaction runs next — the two
//! queues, the ρ-weighted atom coin, Eq. 4–6, the per-class order — is
//! decided by a [`Scheduler`] from `quts-sched`, the same object the
//! discrete-event simulator drives. [`Runtime`] is the *live driver*
//! around it: it owns what a policy must not know about — payloads
//! (the query table and the register table), the engine clock,
//! durability (WAL, group commit, snapshots), reply delivery, fault
//! hooks and stats — and talks to the policy in four places:
//! `admit_query` / `admit_update` at ingest, `pop_next` → run →
//! `finish` per transaction, `shed_update` at the backlog high-water
//! mark, `on_timer` / `next_timer` around idle waits. The
//! simulator is the other driver (a preemptive event heap with virtual
//! service time); `quts-conformance` checks what the two drivers can
//! still disagree on, not the policy twice.
//!
//! **One update path.** A client's update enters through
//! `EngineHandle::admit` — the one gate → state check → `try_send` every
//! submission takes — as a `Msg::Update`, with the submitter's half of
//! an [`UpdateTicket`] when it asked for a durable ack. The scheduler
//! pushes it into the commit buffer (`ingest_update`) and
//! `commit_group` is the only way out: WAL append per member, one sync
//! decision, tickets released at their LSNs, then the register table
//! (newest payload wins, the older one is invalidated) and the policy.
//! Group commit only sets how many updates share that commit; without
//! it the group is one update and closes where it was ingested.

use crate::clock::EngineClock;
use crate::config::EngineConfig;
use crate::durability::{DurabilityConfig, Durable, GroupCommitConfig};
use crate::oneshot::{reply_slot, ReplyReceiver, ReplyRecvError, ReplySender};
use crate::shared::EngineShared;
use crate::stats::LiveStats;
use crate::supervisor::{self, EngineSeed, EngineState};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use quts_db::{
    QueryOp, QueryResult, Recovered, StalenessTracker, StockId, Store, Trade, UpdateRegister,
};
use quts_metrics::{
    query_trace_id, update_trace_id, SeriesKind, TraceClass, TraceCtx, TraceEvent, TraceRecord,
    SPAN_COMMIT_ACK, SPAN_INGEST,
};
use quts_qc::{QualityContract, StalenessAggregation};
use quts_sched::IdMap;
use quts_sim::{
    QueryId, QueryInfo, SchedDecision, Scheduler, SimDuration, SimTime, TxnRef, UpdateId,
    UpdateInfo,
};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The answer a query submission resolves to.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// The computed result.
    pub result: QueryResult,
    /// Wall-clock response time in milliseconds.
    pub rt_ms: f64,
    /// Aggregated `#uu` staleness observed at execution.
    pub staleness: f64,
    /// QoS profit earned under the query's contract.
    pub qos: f64,
    /// QoD profit earned under the query's contract.
    pub qod: f64,
}

impl QueryReply {
    /// Total profit earned.
    pub fn profit(&self) -> f64 {
        self.qos + self.qod
    }
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; back off and retry.
    QueueFull,
    /// The engine is poisoned or stopped; no further work will run.
    EngineDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::EngineDown => write!(f, "engine is down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an admitted query produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The contract lifetime ran out before execution; the query was
    /// shed unexecuted for zero profit.
    Expired,
    /// The engine died (or dropped the reply) before answering.
    EngineDown,
    /// The caller-side wait timed out; the query may still execute.
    Timeout,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Expired => write!(f, "query lifetime expired before execution"),
            QueryError::EngineDown => write!(f, "engine went down before answering"),
            QueryError::Timeout => write!(f, "timed out waiting for the reply"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A claim on one admitted submission's eventual outcome — the one
/// type behind [`QueryTicket`] and [`UpdateTicket`].
///
/// Resolves exactly once: with the outcome, or with an error — never a
/// hang. If the engine dies with the submission in flight, the reply
/// slot closes and the ticket reports [`TicketError::ENGINE_DOWN`].
pub struct Ticket<T, E> {
    rx: ReplyReceiver<Result<T, E>>,
}

/// What a ticket reports on the engine's behalf when no outcome came.
pub trait TicketError {
    /// The engine died (or dropped the reply slot) before resolving.
    const ENGINE_DOWN: Self;
    /// The caller-side wait timed out; the outcome may still arrive.
    const TIMEOUT: Self;
}

impl TicketError for QueryError {
    const ENGINE_DOWN: Self = QueryError::EngineDown;
    const TIMEOUT: Self = QueryError::Timeout;
}

/// A claim on one admitted query's eventual outcome: the reply, or a
/// [`QueryError`].
pub type QueryTicket = Ticket<QueryReply, QueryError>;

/// How long a front end waits on a [`QueryTicket`] before it gives up
/// with [`QueryError::Timeout`]: the server's connections and the
/// router of a cluster [`Cluster::launch`](crate::Cluster::launch) builds.
pub const QUERY_WAIT: Duration = Duration::from_secs(10);

/// The scheduler's half of a [`QueryTicket`].
pub(crate) type QueryReplySender = ReplySender<Result<QueryReply, QueryError>>;

impl<T, E: TicketError> Ticket<T, E> {
    /// A ticket and the sender that resolves it — the cross-shard
    /// coordinator resolves its merged aggregates through the same
    /// ticket type single-shard queries use.
    pub(crate) fn pair() -> (ReplySender<Result<T, E>>, Ticket<T, E>) {
        let (tx, rx) = reply_slot();
        (tx, Ticket { rx })
    }

    /// A ticket already resolved with `outcome`: what a read answered on
    /// the submitting thread (a spanning aggregate, a replica read)
    /// hands back.
    pub(crate) fn resolved(outcome: Result<T, E>) -> Ticket<T, E> {
        let (tx, ticket) = Ticket::pair();
        tx.send(outcome);
        ticket
    }

    /// Blocks until the submission resolves.
    pub fn recv(&self) -> Result<T, E> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(E::ENGINE_DOWN),
        }
    }

    /// Blocks up to `timeout` for the resolution (`Duration::MAX` waits
    /// without a deadline).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, E> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(ReplyRecvError::Pending) => Err(E::TIMEOUT),
            Err(ReplyRecvError::Disconnected) => Err(E::ENGINE_DOWN),
        }
    }

    /// Non-blocking poll; `None` while the submission is still pending.
    pub fn try_recv(&self) -> Option<Result<T, E>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(ReplyRecvError::Pending) => None,
            Err(ReplyRecvError::Disconnected) => Some(Err(E::ENGINE_DOWN)),
        }
    }
}

/// Why a durable-update submission produced no LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The trade named a stock the store does not hold; nothing was
    /// logged or enqueued.
    UnknownStock,
    /// The engine died (or was poisoned) before the covering fsync
    /// returned; the update may or may not survive recovery, but it was
    /// **never acknowledged as durable**.
    EngineDown,
    /// The caller-side wait timed out; the commit may still complete.
    Timeout,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownStock => write!(f, "update names an unknown stock"),
            UpdateError::EngineDown => write!(f, "engine went down before the commit fsync"),
            UpdateError::Timeout => write!(f, "timed out waiting for the durable ack"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl TicketError for UpdateError {
    const ENGINE_DOWN: Self = UpdateError::EngineDown;
    const TIMEOUT: Self = UpdateError::Timeout;
}

/// A claim on one durable update's commit acknowledgement.
///
/// Resolves with the update's WAL LSN **only after the fsync covering
/// it has returned** — the commit-group leader parks every submitter's
/// ticket until the group's single fsync completes, then releases them
/// in LSN order. If the engine panics before that fsync, the ack slot
/// closes and the ticket reports [`UpdateError::EngineDown`]: an
/// unsynced update is never acked.
pub type UpdateTicket = Ticket<u64, UpdateError>;

/// The scheduler's half of an [`UpdateTicket`].
type UpdateAckSender = ReplySender<Result<u64, UpdateError>>;

/// When a query was submitted: a wall-clock stamp from real clients, or
/// an exact microsecond offset from the virtual-time conformance driver.
pub(crate) enum SubmitStamp {
    Real(Instant),
    VirtualUs(u64),
}

/// Where a query's resolution goes.
pub(crate) enum ReplySink {
    /// To the submitter's [`QueryTicket`] on another thread.
    Ticket(QueryReplySender),
    /// Into the runtime's own outcome table at this trace index: the
    /// virtual driver runs on the scheduler's thread, so there is nobody
    /// to hand anything to and nothing to synchronise.
    Index(usize),
}

pub(crate) enum Msg {
    Query {
        op: QueryOp,
        qc: QualityContract,
        submitted: SubmitStamp,
        /// Trace context opened upstream (the read router's root span);
        /// `None` lets the engine stamp a fresh root at ingest.
        ctx: Option<TraceCtx>,
        reply: ReplySink,
    },
    /// A blind update; `ack` is the submitter's half of an
    /// [`UpdateTicket`], `None` for fire-and-forget.
    Update {
        trade: Trade,
        ack: Option<UpdateAckSender>,
    },
    /// Cross-shard 2PL: read the named items' committed values, send the
    /// grant, then hold the scheduler still until `release` fires (or
    /// the deadline passes). While held, no update can move the read
    /// values — the coordinator's multi-shard read is torn-free.
    Lock {
        items: Vec<StockId>,
        deadline: Instant,
        grant: Sender<LockGrant>,
        release: Receiver<()>,
    },
    Shutdown,
}

/// What a shard grants a [`CrossShardTxn`](crate::shard::CrossShardTxn)
/// coordinator: the committed value and staleness of each requested
/// item, frozen until the coordinator releases the shard.
pub(crate) struct LockGrant {
    /// Committed price per requested item, request order.
    pub(crate) prices: Vec<f64>,
    /// Unapplied-update count (`#uu`) per requested item, request order.
    pub(crate) unapplied: Vec<u64>,
}

/// The running engine: owns the supervised scheduler thread.
pub struct Engine {
    handle: EngineHandle,
    thread: std::thread::JoinHandle<()>,
}

/// A cloneable client handle to a running [`Engine`].
#[derive(Clone)]
pub struct EngineHandle {
    tx: Sender<Msg>,
    /// The router, the shard map and the WAL shipper read the engine's
    /// seed, item count and trace sink straight from here.
    pub(crate) shared: Arc<EngineShared>,
}

impl Engine {
    /// Starts the engine over the given store.
    ///
    /// # Panics
    /// Panics where [`Engine::try_start`] returns an error.
    pub fn start(store: Store, config: EngineConfig) -> Engine {
        Engine::try_start(store, config).expect("open the durability directory")
    }

    /// Starts the engine. Without durability it serves `store`. With it,
    /// it opens `config.durability`'s directory: one without a MANIFEST
    /// (missing or empty) is initialised from `store`; an initialised
    /// one is recovered — the current snapshot + WAL tail rebuild the
    /// store, the staleness counters *and* the pending update queue, so
    /// the engine owes exactly what it owed when it stopped — and
    /// `store` only names the universe the directory must hold.
    ///
    /// # Errors
    /// `InvalidInput`, before the directory is touched, when a QUTS
    /// knob fails [`QutsConfig::check`](quts_sched::QutsConfig::check);
    /// `WouldBlock` while another engine or replica writes the
    /// directory; `InvalidData` when it holds other symbols than
    /// `store`'s, in order; `NotFound` when it has a MANIFEST but no
    /// decodable snapshot; other IO errors from the directory.
    pub fn try_start(store: Store, config: EngineConfig) -> std::io::Result<Engine> {
        config.check()?;
        let (durable, rec) = Durable::start(&config, store)?;
        Ok(Engine::spawn(durable, rec, config))
    }

    /// Restarts an engine over the initialised directory `dir` — a
    /// promoted replica's, or a rolled-back primary's — with
    /// `config.durability`'s other knobs when it has them.
    pub(crate) fn reopen(dir: PathBuf, mut config: EngineConfig) -> std::io::Result<Engine> {
        let dcfg = config
            .durability
            .get_or_insert_with(|| DurabilityConfig::new(&dir));
        dcfg.dir = dir;
        let (durable, rec) = Durable::recover(&config)?;
        Ok(Engine::spawn(Some(durable), rec, config))
    }

    /// Spawns the supervised scheduler thread over what the start read:
    /// its stats begin where the directory left off.
    fn spawn(durable: Option<Durable>, rec: Recovered, config: EngineConfig) -> Engine {
        let init = LiveStats {
            rho: config.quts.initial_rho,
            recovery_replayed_updates: rec.replayed,
            wal_truncated_bytes: rec.truncated_bytes,
            snapshot_last_lsn: rec.snapshot_lsn,
            wal_last_lsn: rec.next_lsn - 1,
            pending_updates: rec.pending.len() as u64,
            ..LiveStats::default()
        };
        let seed = EngineSeed::new(rec, durable);
        let (tx, rx) = bounded(config.queue_capacity);
        let shared = Arc::new(EngineShared::new(&config, seed.store.len(), init));
        let for_thread = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("quts-engine".into())
            .spawn(move || supervisor::supervise(seed, config, rx, for_thread))
            .expect("spawn engine thread");
        Engine {
            handle: EngineHandle { tx, shared },
            thread,
        }
    }

    /// The client handle (cloneable, usable from other threads).
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Submits a read-only query; the ticket resolves once the scheduler
    /// has executed (or shed) it.
    ///
    /// # Panics
    /// Panics, on the caller's thread, if the operator names an id
    /// outside the store or is a `Compare` with no stocks (mirrors
    /// [`QueryOp::execute`]); the engine serves on.
    pub fn submit_query(
        &self,
        op: QueryOp,
        qc: QualityContract,
    ) -> Result<QueryTicket, SubmitError> {
        self.handle.submit_query(op, qc)
    }

    /// Submits a blind update.
    pub fn submit_update(&self, trade: Trade) -> Result<(), SubmitError> {
        self.handle.submit_update(trade)
    }

    /// Submits an update and returns a ticket that resolves with its
    /// WAL LSN once the covering fsync has returned (see
    /// [`EngineHandle::submit_update_durable`]).
    pub fn submit_update_durable(&self, trade: Trade) -> Result<UpdateTicket, SubmitError> {
        self.handle.submit_update_durable(trade)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> LiveStats {
        self.handle.stats()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EngineState {
        self.handle.state()
    }

    /// Drains remaining work, stops the scheduler thread and returns the
    /// final statistics.
    pub fn shutdown(self) -> LiveStats {
        let _ = self.handle.tx.send(Msg::Shutdown);
        let _ = self.thread.join();
        self.handle.stats()
    }
}

impl EngineHandle {
    /// Submits a read-only query (see [`Engine::submit_query`]).
    ///
    /// # Panics
    /// As [`Engine::submit_query`]: on the caller's thread, for an
    /// operator the store cannot answer.
    pub fn submit_query(
        &self,
        op: QueryOp,
        qc: QualityContract,
    ) -> Result<QueryTicket, SubmitError> {
        self.submit_query_inner(op, qc, None)
    }

    /// Submits a read-only query carrying an upstream trace context —
    /// the read router opens the chain with its routing decision and the
    /// engine stamps its ingest as a child span instead of a new root.
    pub(crate) fn submit_query_traced(
        &self,
        op: QueryOp,
        qc: QualityContract,
        ctx: TraceCtx,
    ) -> Result<QueryTicket, SubmitError> {
        self.submit_query_inner(op, qc, Some(ctx))
    }

    fn submit_query_inner(
        &self,
        op: QueryOp,
        qc: QualityContract,
        ctx: Option<TraceCtx>,
    ) -> Result<QueryTicket, SubmitError> {
        // Checked here, on the caller's thread: an operator the store
        // cannot answer would panic the scheduler thread instead.
        let items = op.accessed_items();
        assert!(
            items.iter().all(|s| s.index() < self.shared.num_items),
            "query names an item outside the store"
        );
        assert!(
            !matches!(&op, QueryOp::Compare(stocks) if stocks.is_empty()),
            "Compare needs at least one stock"
        );
        let (reply_tx, ticket) = QueryTicket::pair();
        self.admit(Msg::Query {
            op,
            qc,
            submitted: SubmitStamp::Real(Instant::now()),
            ctx,
            reply: ReplySink::Ticket(reply_tx),
        })?;
        Ok(ticket)
    }

    /// Submits a blind update (see [`Engine::submit_update`]).
    pub fn submit_update(&self, trade: Trade) -> Result<(), SubmitError> {
        self.admit(Msg::Update { trade, ack: None })
    }

    /// Submits an update whose [`UpdateTicket`] resolves with the WAL
    /// LSN **after** the fsync covering it returns — never before. The
    /// submitter parks on the ticket until its commit group closes: with
    /// group commit the leader batches concurrent updates into one
    /// fsync, without it the update is a group of one, synced on its
    /// own. On an engine without durability the ticket resolves
    /// immediately at LSN 0 (no durability promise exists to wait for).
    pub fn submit_update_durable(&self, trade: Trade) -> Result<UpdateTicket, SubmitError> {
        let (ack_tx, ticket) = UpdateTicket::pair();
        self.admit(Msg::Update {
            trade,
            ack: Some(ack_tx),
        })?;
        Ok(ticket)
    }

    /// Requests a cross-shard lock on `items` (this shard's local ids).
    /// Returns the grant receiver and the release sender; the shard
    /// freezes from grant until release (or `deadline`). Only the
    /// [`CrossShardTxn`](crate::shard::CrossShardTxn) coordinator calls
    /// this, always in ascending shard-id order.
    pub(crate) fn submit_lock(
        &self,
        items: Vec<StockId>,
        deadline: Instant,
    ) -> Result<(Receiver<LockGrant>, Sender<()>), SubmitError> {
        let (grant, grant_rx) = bounded(1);
        let (release_tx, release) = bounded(1);
        self.admit(Msg::Lock {
            items,
            deadline,
            grant,
            release,
        })?;
        Ok((grant_rx, release_tx))
    }

    /// The one door into the scheduler's inbox: every submission is a
    /// state check and a non-blocking send under the lifecycle's read
    /// guard.
    fn admit(&self, msg: Msg) -> Result<(), SubmitError> {
        // Holding the guard across check + send pins the supervisor's
        // terminal drain behind this send (see `EngineShared::lifecycle`).
        let state = self.shared.lifecycle.read();
        if *state != EngineState::Running {
            return Err(SubmitError::EngineDown);
        }
        self.tx.try_send(msg).map_err(|refused| match refused {
            TrySendError::Full(_) => {
                self.shared.stats.lock().queue_full_rejections += 1;
                SubmitError::QueueFull
            }
            TrySendError::Disconnected(_) => SubmitError::EngineDown,
        })
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> LiveStats {
        self.shared.stats.lock().clone()
    }

    /// The highest LSN appended to the WAL, read alone under the stats
    /// lock: the read router's watermark, without copying the rest.
    pub(crate) fn wal_last_lsn(&self) -> u64 {
        self.shared.stats.lock().wal_last_lsn
    }

    /// Snapshot of the decision-trace ring, oldest first, or `None`
    /// unless the engine was started with trace level `Full`.
    pub fn trace_snapshot(&self) -> Option<Vec<TraceRecord>> {
        self.shared.trace.trace_snapshot()
    }

    /// Decisions lost to ring overwrites (`Some(0)` until the ring
    /// wraps; `None` when tracing is below `Full`).
    pub fn trace_dropped(&self) -> Option<u64> {
        self.shared.trace.trace_dropped()
    }

    /// Serialises the engine's flight recorder — the decision ring plus
    /// its timeseries — as JSON Lines, or `None` below trace level
    /// `Full`. Taken live — the supervisor's crash dump uses the same
    /// encoding.
    pub fn flight_snapshot(&self) -> Option<String> {
        self.shared.trace.flight_snapshot()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EngineState {
        *self.shared.lifecycle.read()
    }
}

/// One accepted update in the commit buffer, awaiting its group's
/// WAL append and covering fsync.
struct GroupEntry {
    trade: Trade,
    /// The submitter's ticket, released at the durable LSN after the
    /// covering fsync; `None` for fire-and-forget submissions.
    ack: Option<UpdateAckSender>,
    /// When the entry joined the buffer, µs on the engine clock —
    /// drives the `max_delay_us` deadline and the wait histogram (unread,
    /// and left 0, on an engine without group commit).
    enqueued_us: u64,
}

struct PendingQuery {
    op: QueryOp,
    qc: QualityContract,
    /// Submission time, microseconds on the engine clock.
    arrival_us: u64,
    /// Contract-lifetime deadline, microseconds on the engine clock.
    expiry_us: u64,
    reply: ReplySink,
}

/// A register-table slot: `(trace label, arrival seq, freshest payload)`.
/// The queue position lives in the policy, which knows a pending update
/// as `UpdateId(stock index)`, so a payload swap never touches it: same
/// id, same arrival sequence, same position.
type PendingUpdate = (u64, u64, Trade);

/// What admitting one update to the register table displaced.
enum Displaced {
    Nothing,
    /// The item's pending payload was overwritten in place.
    Invalidated,
    /// The backlog was at its high-water mark: the oldest pending update
    /// was shed to make room.
    Shed,
}

/// A configured synthetic service cost in the policy's time unit.
fn sim_cost(cost: Option<Duration>) -> SimDuration {
    cost.map_or(SimDuration::ZERO, |d| SimDuration(d.as_micros() as u64))
}

pub(crate) struct Runtime<'a> {
    store: &'a mut Store,
    tracker: &'a mut StalenessTracker,
    config: EngineConfig,
    rx: Receiver<Msg>,
    /// Stats, fault counters and the trace sink — what outlives this
    /// incarnation and what client handles read while it runs.
    shared: Arc<EngineShared>,

    /// The scheduling policy (see the module docs). It knows a query as
    /// `QueryId(low 32 bits of the admission sequence)` — safe because
    /// only `max_pending_queries` (≪ 2^32) are ever pending at once and
    /// `finish` evicts its memo on every terminal path — and a pending
    /// update as `UpdateId(stock index)`.
    policy: Box<dyn Scheduler>,
    /// The latest instant the policy was settled to. Update admission
    /// passes this instead of the clock: an update is ingested at clock
    /// time, which may be past the stamped arrival of a query still in
    /// the inbox, and advancing the policy there would move that query's
    /// `QOSmax`/`QODmax` into the wrong adaptation period.
    settled: SimTime,
    /// Boundary of the newest adaptation already folded into the stats.
    published_adapt: SimTime,
    /// Scratch for `Scheduler::drain_decisions`.
    decisions: Vec<SchedDecision>,
    /// Scratch for the per-item `#uu` of the query being committed.
    staleness_buf: Vec<f64>,
    /// Payloads of the queries the policy holds, by `QueryId`.
    queries: IdMap<u32, PendingQuery>,
    /// Resolutions of [`ReplySink::Index`] queries, by trace index.
    outcomes: Vec<Option<Result<QueryReply, QueryError>>>,
    /// One merged arrival counter across queries and fresh update
    /// registrations — a register-table payload swap inherits the old
    /// position and consumes nothing. The global-FIFO policy compares
    /// heads by this sequence; it also mirrors the simulator's merged
    /// numbering, which the conformance oracle relies on. The seed owns
    /// it, so a restarted incarnation does not reuse a trace id.
    next_seq: &'a mut u64,

    /// The register table: the payloads of the updates the policy holds,
    /// by stock (ids are bounds-checked against the store at ingest).
    register: UpdateRegister<PendingUpdate>,
    /// Trace label of the next fresh update registration (seed-owned,
    /// like `next_seq`).
    next_update_id: &'a mut u64,

    /// WAL + snapshot state, owned by the supervisor so it survives
    /// panic restarts; `None` without durability.
    durable: Option<&'a mut Durable>,

    // --- The commit group ---
    /// Group-commit knobs (cached off the durability config); `None`
    /// makes every update a group of one, closed the moment it is
    /// ingested, and keeps the group-only stats and events silent.
    group: Option<GroupCommitConfig>,
    /// Updates accepted but not yet committed. The scheduler itself is
    /// the leader: it closes the group at `max_batch` records, at the
    /// `max_delay_us` deadline, or on drain. The allocation is reused
    /// from group to group.
    commit_buf: Vec<GroupEntry>,
    /// Fsyncs already folded into `LiveStats::wal_fsyncs` (the WAL
    /// counter restarts at zero each incarnation; the stat is
    /// monotonic).
    fsyncs_seen: u64,

    /// Set once a shutdown is requested (or every handle is gone): the
    /// run loop exits when everything accepted has been applied.
    draining: bool,
    clock: EngineClock,
    /// Whether lifecycle spans feed `LiveStats::spans` (level ≥ `Spans`).
    spans_on: bool,
}

impl<'a> Runtime<'a> {
    /// One scheduler incarnation over `seed`, which it borrows whole:
    /// the store, the tracker and the WAL stay the supervisor's (they
    /// survive this incarnation); `seed.pending` is taken.
    pub(crate) fn new(
        seed: &'a mut EngineSeed,
        config: &EngineConfig,
        rx: Receiver<Msg>,
        shared: Arc<EngineShared>,
        clock: EngineClock,
    ) -> Runtime<'a> {
        let EngineSeed {
            store,
            tracker,
            pending,
            durable,
            next_seq,
            next_update_id,
        } = seed;
        let durable = durable.as_mut();
        let now_us = clock.now_us();
        // The policy's atom/adaptation grid starts at engine-clock "now"
        // — after a supervisor restart that is not zero.
        let mut policy = config.build_policy(SimTime(now_us));
        policy.set_decision_trace(shared.trace.is_on());
        let mut rt = Runtime {
            store,
            tracker,
            config: config.clone(),
            rx,
            shared,
            spans_on: config.trace.level.spans(),
            policy,
            settled: SimTime(now_us),
            published_adapt: SimTime(now_us),
            decisions: Vec::new(),
            staleness_buf: Vec::new(),
            queries: IdMap::default(),
            outcomes: Vec::new(),
            next_seq,
            register: UpdateRegister::new(),
            next_update_id,
            // Group commit only makes sense with a WAL to group into.
            group: config
                .durability
                .as_ref()
                .and_then(|d| d.group_commit)
                .filter(|_| durable.is_some()),
            fsyncs_seen: durable.as_ref().map_or(0, |d| d.fsync_count()),
            durable,
            commit_buf: Vec::new(),
            draining: false,
            clock,
        };
        // Re-enqueue recovered pending updates (already WAL-logged and
        // counted in the tracker — they go straight to the register and
        // the policy, never back through ingest). They occupy the head of
        // the merged arrival order: everything new arrives after them.
        for trade in std::mem::take(pending) {
            rt.register_fresh(trade);
        }
        rt
    }

    pub(crate) fn run(mut self) {
        loop {
            // Ingest what was waiting when this pass began — no more, or
            // a producer that keeps the inbox non-empty would starve
            // execution — and stop at the pending-query high-water mark,
            // so overload backs up into the bounded submission channel
            // and rejects at the door instead of growing the heap without
            // bound.
            for _ in 0..self.rx.len().max(1) {
                if self.queries.len() >= self.config.max_pending_queries {
                    break;
                }
                match self.rx.try_recv() {
                    Ok(msg) => self.ingest(msg),
                    Err(_) => break,
                }
            }
            // Close the commit group if its hold deadline has passed —
            // checked every pass so a parked ticket never waits more
            // than ~max_delay_us past the deadline even under load.
            self.flush_group_if_due();
            // Commit-on-idle: the inbox is drained (everything was taken
            // and nothing arrived meanwhile), so holding a group with
            // parked tickets open buys no more batching — it only delays
            // the acks. Fire-and-forget groups keep gathering until
            // max_batch or the deadline.
            if self.commit_buf.iter().any(|e| e.ack.is_some()) && self.rx.is_empty() {
                self.commit_group();
            }
            // Snapshot cadence is checked between transactions, after
            // the ingest drain — every trade the snapshot's `last_lsn`
            // covers is then either applied or in the pending queue.
            self.maybe_snapshot();

            if self.execute_one() {
                continue;
            }
            if self.draining {
                if self.commit_buf.is_empty() {
                    break;
                }
                // Drain: commit the parked group, then loop to apply it.
                self.commit_group();
                continue;
            }
            // Nothing runnable: settle the policy's boundaries up to now
            // (a dispatch does that itself), then wait for work or its
            // next one (capped: the fixed-priority policies have none).
            self.on_timer();
            let now_us = self.clock.now_us();
            let mut timeout = self
                .policy
                .next_timer(SimTime(now_us))
                .map_or(Duration::MAX, |at| {
                    Duration::from_micros(at.as_micros().saturating_sub(now_us))
                })
                .max(Duration::from_micros(200))
                .min(Duration::from_secs(60));
            // A parked commit group bounds the idle wait: wake at its
            // deadline so its tickets release on time.
            if let Some(deadline_us) = self.group_deadline_us() {
                let left = deadline_us.saturating_sub(self.clock.now_us());
                timeout = timeout.min(Duration::from_micros(left));
            }
            match self.rx.recv_timeout(timeout) {
                Ok(msg) => self.ingest(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => self.draining = true,
            }
        }
        self.finalize();
    }

    /// Publishes a snapshot when the cadence is due. A failed publish is
    /// absorbed (counted), not fatal: the WAL still holds every record,
    /// so recoverability is unharmed — only replay gets longer. A failed
    /// rotation before it is fail-stop: appending on could cost an acked
    /// update (see [`quts_db::wal::Wal::rotate`]).
    fn maybe_snapshot(&mut self) {
        if !self.durable.as_ref().is_some_and(|d| d.should_snapshot()) {
            return;
        }
        let pending = self.in_arrival_order();
        let durable = self.durable.as_mut().expect("checked above");
        match durable.publish_snapshot(self.store, self.tracker.missed_counts(), &pending) {
            Ok(published) => self.account_snapshot(published),
            // No group is open: nothing to count.
            Err(err) => self.fail_stop(u64::MAX, "rotation", &err),
        }
    }

    /// Clean-shutdown durability: force the WAL to disk and publish a
    /// final snapshot, so the next start recovers instantly with an
    /// empty replay. Failures are counted, never panicked over — the
    /// drain already ran, nothing appends after a failed rotation here,
    /// and the WAL (minus the failed sync window) still recovers.
    fn finalize(&mut self) {
        // A drain normally empties the commit buffer before the loop
        // exits; this covers direct callers (virtual driver, tests).
        self.commit_group();
        let pending = self.in_arrival_order();
        let Some(durable) = self.durable.as_mut() else {
            return;
        };
        // The publish's rotation syncs whatever is unsynced.
        let outcome = durable
            .publish_snapshot(self.store, self.tracker.missed_counts(), &pending)
            .flatten();
        self.account_snapshot(outcome);
    }

    /// The pending payloads in arrival order: what a snapshot must
    /// preserve.
    fn in_arrival_order(&self) -> Vec<Trade> {
        let mut pending: Vec<(u64, Trade)> = (0..self.store.len() as u32)
            .filter_map(|i| self.register.pending(StockId(i)))
            .map(|&(_, seq, trade)| (seq, trade))
            .collect();
        pending.sort_unstable_by_key(|&(seq, _)| seq);
        pending.into_iter().map(|(_, trade)| trade).collect()
    }

    /// Folds one snapshot attempt (its LSN, or the IO error) and the
    /// fsyncs it issued into the stats.
    fn account_snapshot(&mut self, outcome: std::io::Result<u64>) {
        let fsync_delta = self.take_fsync_delta();
        let mut s = self.shared.stats.lock();
        s.wal_fsyncs += fsync_delta;
        match outcome {
            Ok(lsn) => {
                s.snapshots_written += 1;
                s.snapshot_last_lsn = lsn;
            }
            Err(_) => s.wal_io_errors += 1,
        }
    }

    fn ingest(&mut self, msg: Msg) {
        match msg {
            Msg::Query {
                op,
                qc,
                submitted,
                ctx,
                reply,
            } => {
                let arrival_us = match submitted {
                    SubmitStamp::Real(at) => self.us_since_epoch(at),
                    SubmitStamp::VirtualUs(us) => us,
                };
                let seq = *self.next_seq;
                *self.next_seq += 1;
                let arrival = SimTime(arrival_us);
                let cost = sim_cost(self.config.synthetic_query_cost);
                let info = QueryInfo::new(&qc, arrival, seq, cost);
                let id = QueryId(seq as u32);
                // Admitted at its *stamped* arrival: the policy settles
                // its boundaries up to that instant first, so the contract
                // counts toward the adaptation period containing the
                // arrival however late the inbox was drained (boundaries
                // are monotone — an arrival already in the past settles
                // nothing).
                self.policy.admit_query(id, &info, arrival);
                self.settle(arrival);
                if self.tracing() {
                    // Root of the request's causal chain — unless a
                    // router already opened it, in which case ingest is
                    // the first child span.
                    let ctx = match ctx {
                        Some(upstream) => upstream.child(SPAN_INGEST),
                        None => TraceCtx::root(query_trace_id(self.config.quts.seed, seq)),
                    };
                    self.shared.trace.record(
                        arrival_us,
                        TraceEvent::Ingest {
                            ctx,
                            class: TraceClass::Query,
                            id: seq,
                        },
                    );
                }
                {
                    let mut s = self.shared.stats.lock();
                    s.aggregates.submit(&qc);
                    // +1: the query joins `self.queries` just below.
                    s.pending_queries = self.queries.len() as u64 + 1;
                    s.pending_updates = self.register.pending_items() as u64;
                }
                self.queries.insert(
                    id.0,
                    PendingQuery {
                        op,
                        qc,
                        arrival_us,
                        expiry_us: info.expiry.as_micros(),
                        reply,
                    },
                );
            }
            Msg::Update { trade, ack } => self.ingest_update(trade, ack),
            Msg::Lock {
                items,
                deadline,
                grant,
                release,
            } => self.serve_lock(&items, deadline, grant, &release),
            Msg::Shutdown => self.draining = true,
        }
    }

    /// Serves one cross-shard lock: read the items' committed state,
    /// grant it, and *freeze* — the scheduler thread blocks on the
    /// release channel, so nothing can apply an update and tear the
    /// coordinator's multi-shard read. The deadline bounds the freeze:
    /// a coordinator that dies mid-transaction costs this shard at most
    /// `deadline - now`, counted in `cross_shard_lock_timeouts`.
    fn serve_lock(
        &mut self,
        items: &[StockId],
        deadline: Instant,
        grant: Sender<LockGrant>,
        release: &Receiver<()>,
    ) {
        if items.iter().any(|s| s.index() >= self.store.len()) {
            // Unknown item: refuse by dropping the grant sender; the
            // coordinator sees a disconnect, not a hang. Nothing is held.
            return;
        }
        let prices = items
            .iter()
            .map(|&s| self.store.record(s).price())
            .collect();
        let unapplied = items.iter().map(|&s| self.tracker.unapplied(s)).collect();
        if grant.send(LockGrant { prices, unapplied }).is_err() {
            return; // coordinator already gone; nothing was held
        }
        self.shared.stats.lock().cross_shard_locks += 1;
        let left = deadline.saturating_duration_since(Instant::now());
        match release.recv_timeout(left) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {}
            Err(RecvTimeoutError::Timeout) => {
                self.shared.stats.lock().cross_shard_lock_timeouts += 1;
            }
        }
    }

    /// Accepts one update into the commit group — the only way in. The
    /// leader (this scheduler) closes the group at `max_batch` records
    /// (1 without group commit: the update is its own group and commits
    /// right here), at the deadline, or on drain. Nothing — WAL,
    /// tracker, register — happens until the group commits: an update is
    /// enqueued only once it is (about to be) durable, preserving
    /// WAL-before-enqueue. `ack` (from
    /// [`submit_update_durable`](EngineHandle::submit_update_durable))
    /// is released only after the fsync covering the update returns.
    pub(crate) fn ingest_update(&mut self, trade: Trade, ack: Option<UpdateAckSender>) {
        if trade.stock.index() >= self.store.len() {
            // Unknown item: drop (blind update to nowhere); a waiting
            // ticket learns it was never accepted.
            if let Some(ack) = ack {
                ack.send(Err(UpdateError::UnknownStock));
            }
            return;
        }
        let mut enqueued_us = 0;
        if self.group.is_some() {
            // Only a group that may be held open has a deadline to keep
            // and a wait to measure; a group of one skips the clock read.
            enqueued_us = self.clock.now_us();
            self.shared.stats.lock().group_buffered += 1;
        }
        self.commit_buf.push(GroupEntry {
            trade,
            ack,
            enqueued_us,
        });
        if self.commit_buf.len() >= self.group.map_or(1, |gc| gc.max_batch) {
            self.commit_group();
        }
    }

    /// Register-table admission of one accepted (logged, or about to be
    /// durable) update — the one place an update enters the queues. A
    /// pending update on the same item keeps its queue position and
    /// arrival sequence; only the payload is swapped, which the policy
    /// never sees. A fresh item registers at the tail of the merged
    /// arrival order, shedding the oldest pending update first when the
    /// backlog is at its high-water mark (its payload is the least
    /// valuable to apply, and the tracker keeps its item correctly
    /// accounted stale).
    fn enqueue_update(&mut self, trade: Trade, now_us: u64) -> Displaced {
        self.tracker.on_arrival(trade.stock, now_us);
        if let Some(&(label, seq, _)) = self.register.pending(trade.stock) {
            self.register.register(trade.stock, (label, seq, trade));
            self.trace_event(TraceEvent::UpdateInvalidate { id: label });
            return Displaced::Invalidated;
        }
        let mut displaced = Displaced::Nothing;
        if self.register.pending_items() >= self.config.max_pending_updates {
            let victim = self.policy.shed_update();
            if let Some((label, ..)) = victim.and_then(|v| self.register.complete(StockId(v.0))) {
                self.trace_event(TraceEvent::UpdateDrop { id: label });
                displaced = Displaced::Shed;
            }
        }
        self.register_fresh(trade);
        displaced
    }

    /// Registers a pending update for an item that has none and queues
    /// it with the policy, at the next merged arrival number.
    fn register_fresh(&mut self, trade: Trade) {
        let label = *self.next_update_id;
        *self.next_update_id += 1;
        let seq = *self.next_seq;
        *self.next_seq += 1;
        let swapped = self.register.register(trade.stock, (label, seq, trade));
        debug_assert!(swapped.is_none(), "payload swaps keep their label");
        let info = UpdateInfo {
            // No policy orders updates by arrival time; `seq` is the
            // position.
            arrival: self.settled,
            seq,
            cost: sim_cost(self.config.synthetic_update_cost),
            stock: trade.stock,
        };
        // Not the clock: update admission must not advance policy time
        // (see `Runtime::settled`).
        self.policy
            .admit_update(UpdateId(trade.stock.0), &info, self.settled);
    }

    /// Fsyncs issued since the last accounting, to fold into the
    /// monotonic `LiveStats::wal_fsyncs` (the WAL counter restarts at
    /// zero when recovery reopens the log).
    fn take_fsync_delta(&mut self) -> u64 {
        let Some(d) = self.durable.as_ref() else {
            return 0;
        };
        let now = d.fsync_count();
        let delta = now.saturating_sub(self.fsyncs_seen);
        self.fsyncs_seen = now;
        delta
    }

    /// Closes the parked group when its oldest entry has waited past
    /// the configured hold deadline.
    fn flush_group_if_due(&mut self) {
        if let Some(deadline_us) = self.group_deadline_us() {
            if self.clock.now_us() >= deadline_us {
                self.commit_group();
            }
        }
    }

    /// The engine-clock instant the parked group must commit by, if one
    /// is parked.
    fn group_deadline_us(&self) -> Option<u64> {
        let gc = self.group?;
        let oldest_us = self.commit_buf.first()?.enqueued_us;
        Some(oldest_us.saturating_add(gc.max_delay_us))
    }

    /// The commit point — the only way an accepted update reaches the
    /// WAL, its ack and the register table: one WAL append per member,
    /// one covering sync decision, ticket release in LSN order, then one
    /// register-table pass folding the whole group. An engine without
    /// group commit runs this per update, on a group of one.
    ///
    /// Failure semantics: any IO error poisons the **whole group** —
    /// the scheduler panics before releasing a single ticket, so every
    /// parked submitter sees its ack channel disconnect
    /// ([`UpdateError::EngineDown`]); no partial acks, ever.
    // A per-statement `expect` instead of one binding: the append loop
    // needs `&mut self` for `trace_event` between durable borrows.
    fn commit_group(&mut self) {
        if self.commit_buf.is_empty() {
            return;
        }
        // Group-only bookkeeping (stats, flight sample, ack events)
        // stays silent on an engine that never asked for groups.
        let grouped = self.group.is_some();
        // The buffer is walked by index and cleared at the end — its
        // members are `Copy` trades and take-once acks — so it keeps its
        // allocation: an ungrouped engine's per-update path must not
        // allocate.
        let members = self.commit_buf.len();
        let mut first_lsn = None;
        if let Some(group_lsn) = self.durable.as_ref().map(|d| d.next_lsn()) {
            for i in 0..members {
                // An update's trace id is born with its LSN: primary and
                // replica both derive it from (seed, lsn), so it never
                // rides a frame. Stamp the ingest span with the
                // *predicted* LSN before the append syscall — the WAL
                // shipper can see the frame on disk the moment the write
                // lands, and the root must precede any ship span.
                if self.tracing() {
                    let lsn = self.durable.as_ref().expect("checked").next_lsn();
                    self.trace_event(TraceEvent::Ingest {
                        ctx: TraceCtx::root(update_trace_id(self.config.quts.seed, lsn)),
                        class: TraceClass::Update,
                        id: lsn,
                    });
                }
                let durable = self.durable.as_mut().expect("checked");
                let trade = &self.commit_buf[i].trade;
                match durable.append(trade) {
                    Ok(lsn) => first_lsn = first_lsn.or(Some(lsn)),
                    // A buffer spill or a rotation failed.
                    Err(err) => self.fail_stop(group_lsn, "append", &err),
                }
            }
            // A parked ticket needs a real fsync even under EveryN/Off —
            // the ack *is* a durability promise. Fire-and-forget groups
            // let the configured policy decide (one decision per group).
            let force_sync = self.commit_buf.iter().any(|e| e.ack.is_some());
            let durable = self.durable.as_mut().expect("checked");
            if let Err(err) = durable.commit_group(force_sync) {
                // The group's write or its `sync_data` failed.
                self.fail_stop(group_lsn, "sync", &err);
            }
            if let Some(first) = first_lsn {
                self.shared.log_head.publish(first + members as u64 - 1);
            }
        }
        // Durable point reached: resolve each ticketed update's trace
        // chain (its ingest span was stamped at append time), then
        // release every ticket at its LSN, in append (= LSN) order, as
        // its update folds through the register table. LSNs are
        // contiguous from the first; without a WAL there is no LSN and
        // no durability promise, and 0 says so.
        if grouped && self.tracing() {
            if let Some(first) = first_lsn {
                for (i, e) in self.commit_buf.iter().enumerate() {
                    if e.ack.is_some() {
                        let lsn = first + i as u64;
                        let ctx = TraceCtx::root(update_trace_id(self.config.quts.seed, lsn));
                        self.trace_event(TraceEvent::GroupCommitAck {
                            ctx: ctx.child(SPAN_COMMIT_ACK),
                            lsn,
                            batch: members as u32,
                        });
                    }
                }
            }
        }
        let now_us = self.clock.now_us();
        let mut invalidated = 0u64;
        let mut dropped = 0u64;
        for i in 0..members {
            let entry = &mut self.commit_buf[i];
            let trade = entry.trade;
            if let Some(ack) = entry.ack.take() {
                let lsn = first_lsn.map_or(0, |f| f + i as u64);
                ack.send(Ok(lsn));
            }
            match self.enqueue_update(trade, now_us) {
                Displaced::Nothing => {}
                Displaced::Invalidated => invalidated += 1,
                Displaced::Shed => dropped += 1,
            }
        }
        if grouped {
            self.sample_flight(SeriesKind::GroupCommitBatch, now_us, members as f64);
        }
        // Counters and depth gauges (the restart shed accounting reads
        // them) settle under a single stats-lock acquisition.
        let fsync_delta = self.take_fsync_delta();
        let mut s = self.shared.stats.lock();
        if let Some(first) = first_lsn {
            s.wal_appended += members as u64;
            s.wal_last_lsn = first + members as u64 - 1;
        }
        s.updates_invalidated += invalidated;
        s.updates_dropped_overload += dropped;
        if grouped {
            s.group_commits += 1;
            s.group_buffered = s.group_buffered.saturating_sub(members as u64);
            s.group_commit_batch.record(members as u64);
            for e in &self.commit_buf {
                s.group_commit_wait_us
                    .record(now_us.saturating_sub(e.enqueued_us));
            }
        }
        s.wal_fsyncs += fsync_delta;
        self.set_depth_gauges(&mut s);
        drop(s);
        self.commit_buf.clear();
    }

    /// A WAL IO error inside [`Runtime::commit_group`] is fail-stop:
    /// once the engine accepts an update it must be recoverable, so the
    /// panic unwinds to the supervisor, which rebuilds from snapshot +
    /// WAL tail rather than carrying on with a durability hole. The
    /// members of the group starting at `group_lsn` whose frames were
    /// written to the file are replayable (a failed write drops every
    /// frame it carried, a torn prefix included: replay decides what
    /// survived); the rest stay in the `group_buffered` gauge, which the
    /// supervisor folds into `shed_on_restart_updates`.
    fn fail_stop(&self, group_lsn: u64, step: &str, err: &std::io::Error) -> ! {
        let written = self.durable.as_ref().expect("a WAL").unwritten_lsn();
        let landed = written.saturating_sub(group_lsn);
        let mut s = self.shared.stats.lock();
        s.wal_io_errors += 1;
        s.group_buffered = s.group_buffered.saturating_sub(landed);
        drop(s);
        panic!("wal group {step} failed (fail-stop): {err}");
    }

    /// Microseconds on the engine clock.
    pub(crate) fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Microseconds from the engine epoch to `at` (zero if `at` predates
    /// it, as a query submitted before a panic restart can).
    fn us_since_epoch(&self, at: Instant) -> u64 {
        self.clock.us_since_epoch(at)
    }

    /// Records one decision event at "now" when anything is listening;
    /// the clock (an `Instant::now()` on a real engine) is read only then.
    fn trace_event(&self, event: TraceEvent) {
        if self.tracing() {
            self.shared.trace.record(self.clock.now_us(), event);
        }
    }

    /// True when the engine's recorder exists (trace level `Full`).
    /// Gating event construction on this keeps lower levels free.
    fn tracing(&self) -> bool {
        self.shared.trace.is_on()
    }

    /// Adds one flight-recorder timeseries sample, when tracing.
    fn sample_flight(&self, kind: SeriesKind, at_us: u64, value: f64) {
        self.shared.trace.sample(kind, at_us, value);
    }

    /// Refreshes the queue-depth gauges on an already-held stats lock.
    fn set_depth_gauges(&self, s: &mut LiveStats) {
        s.pending_queries = self.queries.len() as u64;
        s.pending_updates = self.register.pending_items() as u64;
    }

    /// Settles the policy's time-driven state (QUTS atoms and
    /// adaptations) up to the engine clock and publishes what it reports.
    pub(crate) fn on_timer(&mut self) {
        let now = SimTime(self.clock.now_us());
        self.policy.on_timer(now);
        self.settle(now);
    }

    /// Bookkeeping after any policy call that carried the time `at`:
    /// remembers how far the policy is settled and publishes whatever it
    /// reports since the last call — adaptations into the stats and the
    /// flight recorder's timeseries, buffered `AtomStart`/`Adapt`
    /// decisions into the trace sink, each stamped with its boundary
    /// time rather than the instant the lazy settle happened. Nothing
    /// new reported costs two compares.
    fn settle(&mut self, at: SimTime) {
        self.settled = self.settled.max(at);
        let history = self.policy.rho_history().unwrap_or(&[]);
        let unseen = history
            .iter()
            .rev()
            .take_while(|e| e.0 > self.published_adapt)
            .count();
        let fresh = &history[history.len() - unseen..];
        if let Some(&(latest, _)) = fresh.last() {
            let depth = (self.queries.len() + self.register.pending_items()) as f64;
            for &(at, rho) in fresh {
                self.sample_flight(SeriesKind::Rho, at.as_micros(), rho);
                self.sample_flight(SeriesKind::QueueDepth, at.as_micros(), depth);
            }
            let mut s = self.shared.stats.lock();
            for &(_, rho) in fresh {
                s.rho = rho;
                s.adaptations += 1;
                s.push_rho(rho);
            }
            self.set_depth_gauges(&mut s);
            drop(s);
            self.published_adapt = latest;
        }
        if self.tracing() {
            self.policy.drain_decisions(&mut self.decisions);
            // Boundary events (atoms, adaptations) carry their boundary
            // time, not the instant this lazy settle reached them.
            for d in &self.decisions {
                self.shared.trace.record(d.at_us, d.event);
            }
            self.decisions.clear();
        }
    }

    /// Runs the transaction the policy picks next; returns false when it
    /// holds nothing.
    pub(crate) fn execute_one(&mut self) -> bool {
        if !self.policy.has_pending() {
            return false;
        }
        // Fault hooks fire per real transaction.
        let txn = self.shared.faults.next_txn();
        if self.shared.faults.should_panic(&self.config.fault, txn) {
            panic!("fault injection: panic at transaction {txn}");
        }
        let now = SimTime(self.clock.now_us());
        let next = self.policy.pop_next(now);
        self.settle(now);
        let Some(txn) = next else {
            return false;
        };
        match txn {
            TxnRef::Query(id) => self.run_query(id),
            TxnRef::Update(id) => self.run_update(id),
        }
        // Run to completion: a popped transaction is terminal.
        self.policy.finish(txn);
        true
    }

    fn run_query(&mut self, id: QueryId) {
        let Some(q) = self.queries.remove(&id.0) else {
            return;
        };
        // Profit-aware shedding: a query past its contract lifetime can
        // no longer earn anything, so abort it unexecuted (zero profit,
        // no service time spent). Exactly ONE query is shed per
        // scheduling decision — the next `execute_one` goes back through
        // `Scheduler::pop_next`, exactly like the simulator's discarded
        // dispatch.
        if self.clock.now_us() >= q.expiry_us {
            self.expire(id, q.reply, false);
            return;
        }

        let dispatched_us = self.clock.now_us();
        self.trace_event(TraceEvent::Dispatch {
            class: TraceClass::Query,
            id: u64::from(id.0),
        });
        if let Some(cost) = self.config.synthetic_query_cost {
            self.clock.burn(cost);
        }
        let result = q.op.execute(self.store);
        let items = q.op.accessed_items();
        self.tracker
            .unapplied_over_into(&items, &mut self.staleness_buf);
        // A query is as stale as its stalest item: `#uu` under Max.
        let staleness = StalenessAggregation::Max.aggregate(&self.staleness_buf);
        let now_us = self.clock.now_us();
        let response_us = now_us.saturating_sub(q.arrival_us);
        let rt_ms = SimDuration(response_us).as_ms_f64();

        // A query whose lifetime ran out *during* execution earns
        // nothing: it is expired work, not a commit with zero profit.
        let Some((qos, qod)) = q.qc.answer(rt_ms, staleness) else {
            self.expire(id, q.reply, true);
            return;
        };
        self.sample_flight(SeriesKind::ProfitRate, now_us, qos + qod);
        {
            let mut s = self.shared.stats.lock();
            s.aggregates.gain(qos, qod);
            s.staleness.push(staleness);
            if self.spans_on {
                s.spans.record_commit(
                    q.arrival_us,
                    dispatched_us,
                    now_us,
                    staleness.round() as u64,
                );
            }
            self.set_depth_gauges(&mut s);
        }
        self.trace_event(TraceEvent::Commit {
            id: u64::from(id.0),
            response_us,
            staleness: staleness.round() as u64,
        });
        if self.shared.faults.should_drop_reply(&self.config.fault) {
            // Injected fault: vanish the reply. The client's ticket sees
            // the slot close, never a hang.
            return;
        }
        self.deliver(
            q.reply,
            Ok(QueryReply {
                result,
                rt_ms,
                staleness,
                qos,
                qod,
            }),
        );
    }

    /// Resolves a query whose contract lifetime ran out — before its
    /// dispatch or (`dispatched`) during execution — with zero profit.
    fn expire(&mut self, id: QueryId, reply: ReplySink, dispatched: bool) {
        {
            let mut s = self.shared.stats.lock();
            s.shed_expired += 1;
            if self.spans_on {
                s.spans.record_expiry(dispatched);
            }
            self.set_depth_gauges(&mut s);
        }
        self.trace_event(TraceEvent::Expire {
            id: u64::from(id.0),
            dispatched,
        });
        self.deliver(reply, Err(QueryError::Expired));
    }

    /// Resolves one query, wherever its submitter is waiting.
    fn deliver(&mut self, reply: ReplySink, result: Result<QueryReply, QueryError>) {
        match reply {
            ReplySink::Ticket(tx) => tx.send(result),
            ReplySink::Index(i) => self.outcomes[i] = Some(result),
        }
    }

    fn run_update(&mut self, id: UpdateId) {
        // The payload may be newer than when the policy queued the item
        // (register-table swap keeps the queue position).
        let stock = StockId(id.0);
        let Some((label, _seq, trade)) = self.register.complete(stock) else {
            return;
        };
        self.trace_event(TraceEvent::Dispatch {
            class: TraceClass::Update,
            id: label,
        });
        if let Some(cost) = self.config.synthetic_update_cost {
            self.clock.burn(cost);
        }
        self.store.apply_update(&trade);
        let delay_us = self.tracker.time_differential(stock, self.clock.now_us());
        self.tracker.on_apply(stock);
        {
            let mut s = self.shared.stats.lock();
            s.updates_applied += 1;
            if self.spans_on {
                s.spans.record_update_apply(delay_us);
            }
            self.set_depth_gauges(&mut s);
        }
        self.trace_event(TraceEvent::UpdateApply {
            id: label,
            delay_us,
        });
    }

    // --- Virtual-driver plumbing (crate-private; see `virt`) ---

    /// The next merged arrival sequence number; the virtual driver reads
    /// it before an ingest to learn the id the query will be assigned.
    pub(crate) fn peek_next_seq(&self) -> u64 {
        *self.next_seq
    }

    /// Jumps a virtual clock to `at_us` (no-op on a real clock).
    pub(crate) fn advance_clock_to(&mut self, at_us: u64) {
        self.clock.advance_to(at_us);
    }

    /// Feeds one message straight into the scheduler, bypassing the
    /// channel (virtual driver only).
    pub(crate) fn ingest_direct(&mut self, msg: Msg) {
        self.ingest(msg);
    }

    /// Sizes the outcome table for `queries` [`ReplySink::Index`]
    /// submissions (virtual driver only).
    pub(crate) fn expect_outcomes(&mut self, queries: usize) {
        self.outcomes.resize_with(queries, || None);
    }

    /// The outcome table, by trace index; `None` where the reply was
    /// dropped (an injected fault) or never delivered.
    pub(crate) fn take_outcomes(&mut self) -> Vec<Option<Result<QueryReply, QueryError>>> {
        std::mem::take(&mut self.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_stocks(n: u32) -> (Engine, Vec<StockId>) {
        let store = Store::with_synthetic_stocks(n);
        let ids = (0..n).map(StockId).collect();
        let cfg = EngineConfig::default().with_seed(42);
        (Engine::start(store, cfg), ids)
    }

    fn trade(stock: StockId, price: f64) -> Trade {
        Trade {
            stock,
            price,
            volume: 1,
            trade_time_ms: 0,
        }
    }

    #[test]
    fn query_round_trip() {
        let (engine, ids) = engine_with_stocks(4);
        let reply = engine
            .submit_query(
                QueryOp::Lookup(ids[0]),
                QualityContract::step(10.0, 1000.0, 10.0, 1),
            )
            .expect("admitted")
            .recv_timeout(Duration::from_secs(5))
            .expect("query answered");
        assert_eq!(reply.result, QueryResult::Price(100.0));
        assert!(reply.rt_ms < 1000.0);
        assert_eq!(reply.staleness, 0.0);
        assert_eq!(reply.profit(), 20.0);
        engine.shutdown();
    }

    #[test]
    fn a_query_the_store_cannot_answer_is_refused_at_the_door() {
        let (engine, ids) = engine_with_stocks(4);
        let qc = QualityContract::step(10.0, 1000.0, 10.0, 1);
        for bad in [QueryOp::Lookup(StockId(4)), QueryOp::Compare(Vec::new())] {
            let submitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.submit_query(bad.clone(), qc.clone())
            }));
            assert!(submitted.is_err(), "{bad:?} must panic on the caller");
        }
        // The scheduler thread never saw them: the engine serves on.
        let reply = engine
            .submit_query(QueryOp::Lookup(ids[3]), qc)
            .expect("admitted")
            .recv_timeout(Duration::from_secs(5));
        assert!(reply.is_ok(), "{reply:?}");
        assert_eq!(engine.state(), EngineState::Running);
        engine.shutdown();
    }

    #[test]
    fn updates_reach_the_store() {
        let (engine, ids) = engine_with_stocks(4);
        engine.submit_update(trade(ids[1], 55.5)).unwrap();
        // Queries queue behind the update; by the time this commits the
        // update has been applied (or the query observes staleness > 0
        // and the price mismatch tells us it was not yet applied).
        let reply = engine
            .submit_query(
                QueryOp::Lookup(ids[1]),
                QualityContract::step(1.0, 1000.0, 1.0, 1),
            )
            .unwrap()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        match reply.result {
            QueryResult::Price(p) => {
                if reply.staleness == 0.0 {
                    assert_eq!(p, 55.5);
                } else {
                    assert_eq!(p, 100.0);
                }
            }
            other => panic!("unexpected result {other:?}"),
        }
        let stats = engine.shutdown();
        assert_eq!(stats.updates_applied, 1);
    }

    #[test]
    fn invalidation_applies_only_freshest() {
        let (engine, ids) = engine_with_stocks(2);
        for i in 0..50 {
            engine
                .submit_update(trade(ids[0], 100.0 + i as f64))
                .unwrap();
        }
        // Let the engine drain (deterministic wait, no fixed sleep).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = engine.stats();
            if s.updates_applied + s.updates_invalidated >= 50 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "backlog never drained"
            );
            std::thread::yield_now();
        }
        let reply = engine
            .submit_query(
                QueryOp::Lookup(ids[0]),
                QualityContract::step(1.0, 1000.0, 1.0, 50),
            )
            .unwrap()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert_eq!(reply.result, QueryResult::Price(149.0));
        let stats = engine.shutdown();
        assert_eq!(stats.updates_applied + stats.updates_invalidated, 50);
        assert!(stats.updates_invalidated > 0, "bursts must collapse");
    }

    #[test]
    fn many_clients_all_answered() {
        let (engine, ids) = engine_with_stocks(8);
        let handle = engine.handle();
        let mut tickets = Vec::new();
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let h = handle.clone();
                let ids = ids.clone();
                std::thread::spawn(move || {
                    let mut ts = Vec::new();
                    for i in 0..25u32 {
                        let stock = ids[((w * 25 + i) % 8) as usize];
                        ts.push(
                            h.submit_query(
                                QueryOp::Lookup(stock),
                                QualityContract::step(5.0, 1000.0, 5.0, 1),
                            )
                            .expect("admitted"),
                        );
                        h.submit_update(trade(stock, 1.0 + i as f64)).unwrap();
                    }
                    ts
                })
            })
            .collect();
        for w in workers {
            tickets.extend(w.join().unwrap());
        }
        for t in tickets {
            let reply = t.recv_timeout(Duration::from_secs(10)).expect("answered");
            assert!(reply.profit() <= 10.0 + 1e-12);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.aggregates.submitted, 100);
        assert_eq!(stats.aggregates.committed, 100);
        assert!(stats.total_pct() > 0.0);
    }

    #[test]
    fn rho_adapts_from_contracts() {
        let store = Store::with_synthetic_stocks(2);
        let mut cfg = EngineConfig::default().with_seed(7);
        cfg.quts.omega = SimDuration::from_ms(30);
        let engine = Engine::start(store, cfg);
        // QoS-only contracts → rho must climb toward 1.
        for _ in 0..20 {
            let _ = engine.submit_query(
                QueryOp::Lookup(StockId(0)),
                QualityContract::step(10.0, 1000.0, 0.0, 1),
            );
        }
        // Poll instead of a fixed sleep: wait until the adaptation
        // timer has fired twice and ρ has moved, with a generous
        // deadline so the asserts still produce a clear failure.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            let s = engine.stats();
            if s.adaptations >= 2 && s.rho > 0.75 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = engine.stats();
        assert!(stats.adaptations >= 2, "adaptation timer must fire");
        assert!(
            stats.rho > 0.75,
            "rho should move toward 1, got {}",
            stats.rho
        );
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let (engine, ids) = engine_with_stocks(2);
        let ticket = engine
            .submit_query(
                QueryOp::Lookup(ids[0]),
                QualityContract::step(1.0, 1000.0, 1.0, 1),
            )
            .unwrap();
        engine.submit_update(trade(ids[1], 7.0)).unwrap();
        let stats = engine.shutdown();
        assert!(
            matches!(ticket.try_recv(), Some(Ok(_))),
            "query answered before shutdown"
        );
        assert_eq!(stats.updates_applied, 1);
    }

    #[test]
    fn submissions_fail_fast_after_shutdown() {
        let (engine, ids) = engine_with_stocks(2);
        let handle = engine.handle();
        engine.shutdown();
        assert_eq!(handle.state(), EngineState::Stopped);
        assert_eq!(
            handle
                .submit_query(
                    QueryOp::Lookup(ids[0]),
                    QualityContract::step(1.0, 1000.0, 1.0, 1),
                )
                .err(),
            Some(SubmitError::EngineDown)
        );
        assert_eq!(
            handle.submit_update(trade(ids[0], 1.0)).err(),
            Some(SubmitError::EngineDown)
        );
    }

    #[test]
    fn trace_off_exposes_no_ring_and_empty_spans() {
        let (engine, ids) = engine_with_stocks(2);
        engine
            .submit_query(
                QueryOp::Lookup(ids[0]),
                QualityContract::step(1.0, 1000.0, 1.0, 1),
            )
            .unwrap()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert!(engine.handle().trace_snapshot().is_none());
        assert!(engine.handle().trace_dropped().is_none());
        let stats = engine.shutdown();
        assert_eq!(stats.spans.committed, 0, "spans are gated off by default");
    }

    #[test]
    fn spans_level_fills_lifecycle_histograms() {
        use quts_metrics::TraceConfig;
        let store = Store::with_synthetic_stocks(2);
        let cfg = EngineConfig::default()
            .with_seed(11)
            .with_trace(TraceConfig::spans());
        let engine = Engine::start(store, cfg);
        for _ in 0..5 {
            engine
                .submit_query(
                    QueryOp::Lookup(StockId(0)),
                    QualityContract::step(5.0, 1000.0, 5.0, 1),
                )
                .unwrap()
                .recv_timeout(Duration::from_secs(5))
                .unwrap();
        }
        engine.submit_update(trade(StockId(1), 9.0)).unwrap();
        // Spans level keeps the decision ring off.
        assert!(engine.handle().trace_snapshot().is_none());
        let stats = engine.shutdown();
        assert_eq!(stats.spans.committed, 5);
        assert_eq!(stats.spans.response_us.count(), 5);
        assert_eq!(stats.spans.queue_wait_us.count(), 5);
        assert_eq!(stats.spans.update_delay_us.count(), 1);
    }

    #[test]
    fn full_level_records_decision_events() {
        use quts_metrics::{TraceConfig, TraceEvent};
        let store = Store::with_synthetic_stocks(2);
        let cfg = EngineConfig::default()
            .with_seed(13)
            .with_trace(TraceConfig::full());
        let engine = Engine::start(store, cfg);
        engine.submit_update(trade(StockId(0), 50.0)).unwrap();
        engine
            .submit_query(
                QueryOp::Lookup(StockId(0)),
                QualityContract::step(5.0, 1000.0, 5.0, 1),
            )
            .unwrap()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        // Shutdown drains the pending update; the ring outlives the
        // engine through the handle.
        let handle = engine.handle();
        engine.shutdown();
        let records = handle.trace_snapshot().expect("ring is live");
        assert_eq!(handle.trace_dropped(), Some(0));
        let mut commits = 0;
        let mut applies = 0;
        let mut dispatches = 0;
        for r in &records {
            match r.event {
                TraceEvent::Commit { .. } => commits += 1,
                TraceEvent::UpdateApply { .. } => applies += 1,
                TraceEvent::Dispatch { .. } => dispatches += 1,
                _ => {}
            }
        }
        assert_eq!(commits, 1);
        assert_eq!(applies, 1);
        assert_eq!(dispatches, 2, "one query + one update dispatch");
        // Sequence numbers are monotone in ring order.
        for w in records.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn rho_history_stays_bounded_live() {
        let store = Store::with_synthetic_stocks(1);
        // ω = 1 ms: hundreds of adaptations within the sleep below.
        let mut cfg = EngineConfig::default().with_seed(5);
        cfg.quts.omega = SimDuration::from_ms(1);
        let engine = Engine::start(store, cfg);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = engine.stats();
            if s.adaptations > crate::stats::RHO_HISTORY_CAP as u64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "adaptations too slow: {}",
                s.adaptations
            );
            // Keep the scheduler busy so refresh() keeps running.
            let _ = engine.submit_query(
                QueryOp::Lookup(StockId(0)),
                QualityContract::step(1.0, 1000.0, 1.0, 1),
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = engine.shutdown();
        assert!(stats.rho_history.len() <= crate::stats::RHO_HISTORY_CAP);
        assert_eq!(
            stats.rho_history_truncated,
            stats.adaptations - stats.rho_history.len() as u64
        );
        assert!(stats.rho_history_truncated > 0);

        // The policy's own history is a bounded window too: drive the
        // scheduler across more adaptation periods than it retains.
        let mut cfg = EngineConfig::default();
        cfg.quts.omega = SimDuration::from_ms(1);
        let periods = quts_sched::RHO_HISTORY_CAP as u64 + 500;
        with_runtime(1, &cfg, Vec::new(), 0, |rt, stats| {
            // The runtime settles at least once per atom; jumping a
            // few thousand periods at a time is already generous.
            for upto in (0..=periods).step_by(4_000).chain([periods]) {
                rt.advance_clock_to(upto * 1_000);
                rt.on_timer();
            }
            let retained = rt.policy.rho_history().expect("QUTS adapts").len();
            assert!(retained <= quts_sched::RHO_HISTORY_CAP, "{retained}");
            let s = stats.lock();
            assert_eq!(s.adaptations, periods, "every period was published");
            assert!(s.rho_history.len() <= crate::stats::RHO_HISTORY_CAP);
        });
    }

    #[test]
    fn expired_queries_are_shed_with_zero_profit() {
        let store = Store::with_synthetic_stocks(2);
        // A 60 ms query up front guarantees the short-lived query is
        // still queued when its lifetime runs out: it runs first (it is
        // dispatched alone, or wins the VRD tie as the earlier arrival).
        let cfg = EngineConfig {
            synthetic_query_cost: Some(Duration::from_millis(60)),
            ..EngineConfig::default().with_seed(3)
        };
        let engine = Engine::start(store, cfg);
        let healthy = engine
            .submit_query(
                QueryOp::Lookup(StockId(1)),
                QualityContract::step(5.0, 1000.0, 5.0, 1),
            )
            .unwrap();
        let doomed = engine
            .submit_query(
                QueryOp::Lookup(StockId(0)),
                QualityContract::step(5.0, 1000.0, 5.0, 1).with_lifetime_ms(5.0),
            )
            .unwrap();
        assert!(matches!(
            doomed.recv_timeout(Duration::from_secs(5)),
            Err(QueryError::Expired)
        ));
        healthy
            .recv_timeout(Duration::from_secs(5))
            .expect("healthy answered");
        let stats = engine.shutdown();
        assert_eq!(stats.shed_expired, 1);
        assert_eq!(stats.aggregates.committed, 1, "shed query never commits");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("quts-runtime-gc-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn durable_ack_without_group_commit() {
        use crate::durability::DurabilityConfig;
        let dir = temp_dir("plain-ack");
        let store = Store::with_synthetic_stocks(2);
        let cfg = EngineConfig::default()
            .with_seed(21)
            .with_trace(quts_metrics::TraceConfig::full())
            .with_durability(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::EveryN(64)));
        let engine = Engine::start(store, cfg);
        let handle = engine.handle();
        let lsn = engine
            .submit_update_durable(trade(StockId(0), 5.0))
            .expect("admitted")
            .recv_timeout(Duration::from_secs(5))
            .expect("acked");
        assert_eq!(lsn, 1, "first WAL append");
        // Unknown stocks resolve the ticket with an error, not a hang.
        let err = engine
            .submit_update_durable(trade(StockId(99), 5.0))
            .expect("admitted")
            .recv_timeout(Duration::from_secs(5))
            .expect_err("unknown stock");
        assert_eq!(err, UpdateError::UnknownStock);
        let stats = engine.shutdown();
        assert_eq!(stats.wal_appended, 1);
        assert!(
            stats.wal_fsyncs >= 1,
            "the ack forced a sync despite EveryN(64)"
        );
        // A group of one is not a group: nothing group-only is reported.
        assert_eq!(stats.group_commits, 0, "group commit is off by default");
        assert_eq!(stats.group_commit_batch.count(), 0);
        assert_eq!(stats.group_commit_wait_us.count(), 0);
        let events = handle.trace_snapshot().expect("ring is live");
        let count =
            |pred: fn(&TraceEvent) -> bool| events.iter().filter(|r| pred(&r.event)).count();
        assert_eq!(count(|e| matches!(e, TraceEvent::GroupCommitAck { .. })), 0);
        assert_eq!(count(|e| matches!(e, TraceEvent::Ingest { id: 1, .. })), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_ack_with_no_durability_resolves_lsn_zero() {
        let (engine, ids) = engine_with_stocks(2);
        let lsn = engine
            .submit_update_durable(trade(ids[0], 5.0))
            .expect("admitted")
            .recv_timeout(Duration::from_secs(5))
            .expect("acked");
        assert_eq!(lsn, 0, "no WAL, no LSN — but the update is accepted");
        let stats = engine.shutdown();
        assert_eq!(stats.updates_applied, 1);
    }

    /// Every WAL segment under `dir`, by file name.
    fn wal_segments(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
        quts_db::wal::segment_files(dir)
            .expect("list segments")
            .into_iter()
            .map(|(_, path)| {
                let bytes = std::fs::read(&path).expect("read segment");
                (path.file_name().expect("segment name").into(), bytes)
            })
            .collect()
    }

    #[test]
    fn ungrouped_engine_is_a_commit_group_of_one() {
        use crate::durability::{DurabilityConfig, GroupCommitConfig};
        // What one run leaves behind: the counters an operator reads and
        // the WAL bytes recovery reads.
        let run = |tag: &str, fsync: FsyncPolicy, ticketed: bool, gc: Option<GroupCommitConfig>| {
            let dir = temp_dir(tag);
            let mut dcfg = DurabilityConfig::new(&dir).with_fsync(fsync);
            dcfg.group_commit = gc;
            let cfg = EngineConfig::default().with_durability(dcfg);
            let mut end = LiveStats::default();
            with_runtime(3, &cfg, Vec::new(), 0, |rt, stats| {
                for i in 0..10u32 {
                    let (ack, ticket) = UpdateTicket::pair();
                    rt.ingest_update(trade(StockId(i % 3), f64::from(i)), ticketed.then_some(ack));
                    if ticketed {
                        let lsn = ticket.try_recv().expect("acked at ingest");
                        assert_eq!(lsn, Ok(u64::from(i) + 1), "{tag}");
                    }
                    // Apply some between arrivals so the run has both
                    // applied and invalidated updates.
                    if i % 4 == 3 {
                        assert!(rt.execute_one());
                    }
                }
                end = stats.lock().clone();
            });
            assert_eq!(
                end.group_commits,
                if gc.is_some() { 10 } else { 0 },
                "{tag}"
            );
            assert_eq!(end.group_buffered, 0, "{tag}");
            // The runtime and its WAL writer are gone: every frame is in
            // the files.
            let segments = wal_segments(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (end, segments)
        };
        let counters = |s: &LiveStats| {
            [
                s.wal_appended,
                s.wal_last_lsn,
                s.wal_fsyncs,
                s.updates_applied,
                s.updates_invalidated,
                s.pending_updates,
            ]
        };
        let one = GroupCommitConfig::default().with_max_batch(1);
        for (fsync, unticketed_fsyncs) in [
            (FsyncPolicy::Off, 0),
            (FsyncPolicy::EveryN(3), 3),
            (FsyncPolicy::Always, 10),
        ] {
            for ticketed in [false, true] {
                let tag = format!("one-{fsync:?}-{ticketed}");
                let (plain, segments) = run(&format!("{tag}-none"), fsync, ticketed, None);
                let (batch1, segments1) = run(&format!("{tag}-batch1"), fsync, ticketed, Some(one));
                assert_eq!(counters(&plain), counters(&batch1), "{tag}");
                assert_eq!(segments, segments1, "{tag}");
                // The fsync policy decides per update; a ticket forces it.
                let fsyncs = if ticketed { 10 } else { unticketed_fsyncs };
                assert_eq!(
                    [plain.wal_appended, plain.wal_last_lsn, plain.wal_fsyncs],
                    [10, 10, fsyncs],
                    "{tag}"
                );
                let (applied, invalidated) = (plain.updates_applied, plain.updates_invalidated);
                assert!(applied > 0 && invalidated > 0, "{tag}");
                assert_eq!(applied + invalidated + plain.pending_updates, 10, "{tag}");
                let frames: usize = segments.iter().map(|(_, bytes)| bytes.len()).sum();
                assert!(
                    frames > 10 * quts_db::wal::FRAME_HEADER,
                    "{tag}: {frames} bytes"
                );
            }
        }
    }

    #[test]
    fn a_saturated_inbox_does_not_starve_execution() {
        use crate::durability::DurabilityConfig;
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = temp_dir("starve");
        // A 200 µs flush device under fsync-always: one submitter refills
        // the small inbox faster than the scheduler can empty it, so a
        // run loop that ingests until the inbox reads empty never gets
        // to execute anything.
        let slow = quts_db::simdir::SimDir::default().sync_delay(Duration::from_micros(200));
        let cfg = EngineConfig::default()
            .with_seed(33)
            .with_queue_capacity(8)
            .with_durability(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Always))
            .with_fault_plan(crate::FaultPlan::default().disk(slow));
        let engine = Engine::start(Store::with_synthetic_stocks(4), cfg);
        let handle = engine.handle();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    match handle.submit_update(trade(StockId(i % 4), f64::from(i))) {
                        Ok(()) => i = i.wrapping_add(1),
                        Err(SubmitError::QueueFull) => std::hint::spin_loop(),
                        Err(SubmitError::EngineDown) => break,
                    }
                }
            });
            // The flood is on once the producer has been refused.
            let deadline = Instant::now() + Duration::from_secs(10);
            while engine.stats().queue_full_rejections == 0 {
                assert!(Instant::now() < deadline, "producer never filled the inbox");
                std::thread::yield_now();
            }
            let answered = (0..5u32).all(|i| {
                let ticket = loop {
                    let qc = QualityContract::step(1.0, 1000.0, 1.0, 1);
                    match engine.submit_query(QueryOp::Lookup(StockId(i % 4)), qc) {
                        Ok(ticket) => break ticket,
                        Err(SubmitError::QueueFull) => std::thread::yield_now(),
                        Err(SubmitError::EngineDown) => panic!("engine died"),
                    }
                };
                // Any resolution will do; a starved query times out.
                !matches!(
                    ticket.recv_timeout(Duration::from_secs(5)),
                    Err(QueryError::Timeout)
                )
            });
            stop.store(true, Ordering::Relaxed);
            assert!(answered, "queries starved behind the update flood");
        });
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_acks_concurrent_submitters_at_contiguous_lsns() {
        use crate::durability::{DurabilityConfig, GroupCommitConfig};
        let dir = temp_dir("parked");
        let store = Store::with_synthetic_stocks(8);
        let cfg = EngineConfig::default().with_seed(23).with_durability(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(
                    GroupCommitConfig::default()
                        .with_max_batch(8)
                        .with_max_delay_us(60_000_000),
                ),
        );
        let engine = Engine::start(store, cfg);
        let handle = engine.handle();
        let workers: Vec<_> = (0..8u32)
            .map(|w| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    h.submit_update_durable(trade(StockId(w), w as f64))
                        .expect("admitted")
                        .recv_timeout(Duration::from_secs(10))
                        .expect("acked at durable LSN")
                })
            })
            .collect();
        let mut lsns: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        lsns.sort_unstable();
        assert_eq!(lsns, (1..=8).collect::<Vec<u64>>(), "contiguous LSN span");
        let stats = engine.shutdown();
        assert_eq!(stats.wal_appended, 8);
        // How many groups formed depends on arrival interleaving
        // (commit-on-idle closes a ticketed group as soon as the inbox
        // drains), but every update went through exactly one group.
        assert!(stats.group_commits >= 1 && stats.group_commits <= 8);
        assert_eq!(stats.group_commit_batch.count(), stats.group_commits);
        assert_eq!(stats.group_commit_batch.sum(), 8, "batch sizes total 8");
        assert_eq!(stats.group_commit_wait_us.count(), 8);
        assert_eq!(stats.group_buffered, 0, "buffer drained");
        assert_eq!(stats.updates_applied + stats.updates_invalidated, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_closes_fire_and_forget_groups_at_max_batch() {
        use crate::durability::{DurabilityConfig, GroupCommitConfig};
        let dir = temp_dir("max-batch");
        let store = Store::with_synthetic_stocks(4);
        // No tickets and an unreachable deadline: only max_batch can
        // close the group, so exactly one group of 4 forms.
        let cfg = EngineConfig::default().with_seed(27).with_durability(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(
                    GroupCommitConfig::default()
                        .with_max_batch(4)
                        .with_max_delay_us(60_000_000),
                ),
        );
        let engine = Engine::start(store, cfg);
        for i in 0..4u32 {
            engine.submit_update(trade(StockId(i), i as f64)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = engine.stats();
            if s.group_commits >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "max_batch never closed the group"
            );
            std::thread::yield_now();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.wal_appended, 4);
        assert_eq!(stats.group_commits, 1, "one group of max_batch records");
        assert_eq!(stats.group_commit_batch.sum(), 4);
        assert_eq!(stats.group_buffered, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_deadline_flushes_partial_groups() {
        use crate::durability::{DurabilityConfig, GroupCommitConfig};
        let dir = temp_dir("deadline");
        let store = Store::with_synthetic_stocks(4);
        // A batch bound far above the submission count: only the
        // max_delay deadline can release these fire-and-forget updates.
        let cfg = EngineConfig::default().with_seed(29).with_durability(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(
                    GroupCommitConfig::default()
                        .with_max_batch(100_000)
                        .with_max_delay_us(500),
                ),
        );
        let engine = Engine::start(store, cfg);
        for i in 0..3u32 {
            engine.submit_update(trade(StockId(i), i as f64)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = engine.stats();
            if s.updates_applied + s.updates_invalidated + s.pending_updates >= 3 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "deadline flush never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = engine.shutdown();
        assert_eq!(stats.wal_appended, 3);
        assert!(stats.group_commits >= 1);
        assert_eq!(stats.group_buffered, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_shutdown_drains_the_buffer() {
        use crate::durability::{DurabilityConfig, GroupCommitConfig};
        let dir = temp_dir("drain");
        let store = Store::with_synthetic_stocks(4);
        // Neither bound can fire before shutdown: the drain path must
        // commit the parked group itself.
        let cfg = EngineConfig::default().with_seed(31).with_durability(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(
                    GroupCommitConfig::default()
                        .with_max_batch(100_000)
                        .with_max_delay_us(60_000_000),
                ),
        );
        let engine = Engine::start(store, cfg);
        for i in 0..4u32 {
            engine.submit_update(trade(StockId(i), i as f64)).unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.wal_appended, 4);
        assert_eq!(stats.group_buffered, 0);
        assert_eq!(stats.updates_applied + stats.updates_invalidated, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `body` against a bare [`Runtime`] on a virtual clock starting
    /// at `start_us` — the scheduler thread's state machine without the
    /// thread, the way `virt::drive` holds it.
    fn with_runtime(
        stocks: u32,
        config: &EngineConfig,
        seed_pending: Vec<Trade>,
        start_us: u64,
        body: impl FnOnce(&mut Runtime, &Mutex<LiveStats>),
    ) {
        let store = Store::with_synthetic_stocks(stocks);
        let (durable, _) = Durable::start(config, store.clone()).expect("fresh durability dir");
        let rec = Recovered {
            pending: seed_pending,
            ..Recovered::fresh(store)
        };
        let mut seed = EngineSeed::new(rec, durable);
        let shared = Arc::new(EngineShared::new(
            config,
            seed.store.len(),
            LiveStats::default(),
        ));
        let (_tx, rx) = bounded::<Msg>(1);
        let clock = EngineClock::Virtual { now_us: start_us };
        let mut rt = Runtime::new(&mut seed, config, rx, Arc::clone(&shared), clock);
        body(&mut rt, &shared.stats);
    }

    fn virtual_query(at_us: u64, stock: u32, qc: QualityContract) -> Msg {
        Msg::Query {
            op: QueryOp::Lookup(StockId(stock)),
            qc,
            submitted: SubmitStamp::VirtualUs(at_us),
            ctx: None,
            reply: ReplySink::Ticket(QueryTicket::pair().0),
        }
    }

    #[test]
    fn high_water_sheds_the_oldest_pending_update_under_every_policy() {
        for policy in LivePolicy::ALL {
            let cfg = EngineConfig::default()
                .with_policy(policy)
                .with_max_pending_updates(2);
            with_runtime(5, &cfg, Vec::new(), 0, |rt, stats| {
                // A queued query must not be mistaken for the oldest
                // *update* (it is the oldest arrival under FIFO).
                rt.ingest(virtual_query(
                    0,
                    0,
                    QualityContract::step(1.0, 1000.0, 1.0, 1),
                ));
                for stock in 1..=4u32 {
                    rt.ingest_update(trade(StockId(stock), 7.0), None);
                }
                // A payload swap at the mark sheds nothing.
                rt.ingest_update(trade(StockId(4), 8.0), None);
                {
                    let s = stats.lock();
                    assert_eq!(s.updates_dropped_overload, 2, "{}", policy.label());
                    assert_eq!(s.updates_invalidated, 1, "{}", policy.label());
                    assert_eq!(s.pending_updates, 2, "{}", policy.label());
                }
                while rt.execute_one() {}
                let price = |s: u32| rt.store.record(StockId(s)).price();
                assert_eq!(
                    [price(1), price(2), price(3), price(4)],
                    [100.0, 100.0, 7.0, 8.0],
                    "{}: the two oldest were shed, the rest applied",
                    policy.label()
                );
                // Shed updates stay owed: the items read as stale.
                assert_eq!(rt.tracker.total_unapplied(), 2, "{}", policy.label());
                assert_eq!(stats.lock().updates_applied, 2, "{}", policy.label());
            });
        }
    }

    #[test]
    fn recovered_pending_updates_apply_before_post_restart_arrivals() {
        for policy in LivePolicy::ALL {
            let cfg = EngineConfig::default()
                .with_policy(policy)
                .with_trace(quts_metrics::TraceConfig::full());
            let recovered = vec![trade(StockId(2), 20.0), trade(StockId(0), 30.0)];
            with_runtime(3, &cfg, recovered, 0, |rt, stats| {
                assert_eq!(rt.in_arrival_order().len(), 2);
                rt.ingest_update(trade(StockId(1), 40.0), None);
                // A post-restart payload for a recovered item keeps the
                // recovered position.
                rt.ingest_update(trade(StockId(2), 21.0), None);
                let prices =
                    |rt: &Runtime| [0u32, 1, 2].map(|s| rt.store.record(StockId(s)).price());
                assert!(rt.execute_one());
                assert_eq!(prices(rt), [100.0, 100.0, 21.0], "{}", policy.label());
                assert!(rt.execute_one());
                assert_eq!(prices(rt), [30.0, 100.0, 21.0], "{}", policy.label());
                assert!(rt.execute_one());
                assert_eq!(prices(rt), [30.0, 40.0, 21.0], "{}", policy.label());
                assert!(!rt.execute_one());
                assert_eq!(stats.lock().updates_applied, 3);
            });
        }
    }

    #[test]
    fn restarted_runtime_adapts_omega_after_the_restart() {
        // An hour into the engine clock (a supervisor restart): the
        // policy's grid must start there, not replay the hour.
        let start_us = 3_600_000_000u64;
        let cfg = EngineConfig::default().with_trace(quts_metrics::TraceConfig::full());
        let omega_us = cfg.quts.omega.as_micros();
        with_runtime(1, &cfg, Vec::new(), start_us, |rt, stats| {
            rt.on_timer();
            assert_eq!(stats.lock().adaptations, 0);
            let traced = rt.shared.trace.trace_snapshot().expect("full trace");
            assert!(traced.len() <= 1, "no replayed atom draws");
            rt.advance_clock_to(start_us + omega_us - 1);
            rt.on_timer();
            assert_eq!(stats.lock().adaptations, 0, "not before start + ω");
            rt.advance_clock_to(start_us + omega_us);
            rt.on_timer();
            assert_eq!(stats.lock().adaptations, 1);
            let history = rt.policy.rho_history().expect("QUTS adapts");
            assert_eq!(history[0].0, SimTime(start_us + omega_us));
        });
    }

    #[test]
    fn update_ingest_does_not_advance_policy_time() {
        // The clock is past the first adaptation boundary when an update
        // is ingested; a query stamped *before* the boundary is still in
        // the inbox. Its contract must count toward the first period.
        let mut cfg = EngineConfig::default();
        cfg.quts.omega = SimDuration::from_ms(100);
        with_runtime(2, &cfg, Vec::new(), 0, |rt, stats| {
            rt.advance_clock_to(150_000);
            rt.ingest_update(trade(StockId(1), 5.0), None);
            // QoS-only: Eq. 4 says ρ* = 1, so the first step is 0.75 → 0.8.
            rt.ingest(virtual_query(
                50_000,
                0,
                QualityContract::step(10.0, 1000.0, 0.0, 1),
            ));
            rt.on_timer();
            let s = stats.lock();
            assert_eq!(s.adaptations, 1);
            assert!(
                (s.rho_history[0] - 0.8).abs() < 1e-12,
                "first period saw the contract: ρ = {}",
                s.rho_history[0]
            );
        });
    }

    use crate::config::LivePolicy;
    use parking_lot::Mutex;
    use quts_db::FsyncPolicy;
}
