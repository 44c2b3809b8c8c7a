//! # Sharded multi-core engine
//!
//! The paper's QUTS scheduler is a single-CPU model; [`ShardedEngine`]
//! scales it out by partitioning the store across `N` independent
//! shards, each a full live engine of its own — its own QUTS scheduler
//! thread, ρ controller, update queue, lock/register tables, panic
//! supervisor, and (with durability) its own WAL segments
//! (`wal-<lsn>.log`) and MANIFEST under `<dir>/shard<k>/`. One shard is
//! the same engine with a shard count of one: the identity map, no
//! spanning reads, and the plain single-engine directory layout (the
//! same files in `<dir>` itself), so a 1-shard directory is an
//! [`Engine`](crate::Engine) directory and vice versa.
//!
//! Every shard runs as a [`Cluster`]: with [`ShardConfig::ship`] set it
//! ships its WAL, follows its own replicas and fails over on its own;
//! without, the cluster is just the engine behind its router. The
//! handle reaches each shard's *current* primary through that router,
//! so a failover re-points the shard's writes, reads, 2PL locks, stats
//! and flight recorder in one place.
//!
//! ## Shard map
//!
//! Items are assigned by a **pure, stable hash** of the item id:
//! `shard_of(id, n) = splitmix64(id) mod n`. The map is a function of
//! `(item id, shard count)` alone — identical across process restarts,
//! iteration orders and machines — so recovery can rebuild the exact
//! same partition without persisting it, and repartitioning from `n` to
//! `m` shards moves only the items whose hash bucket actually changed.
//! Within a shard, items keep their **global-id-ascending rank** as the
//! local dense id, so per-shard flat side tables (staleness counters,
//! register tables) work unchanged.
//!
//! ## Routing
//!
//! Single-item queries and *all* updates touch exactly one shard: the
//! handle remaps the global id to the shard-local id and forwards to
//! that shard's own admission queue, where the paper's scheduling rules
//! apply untouched. Multi-item aggregates whose items land on one shard
//! route the same way. Only aggregates that genuinely span shards are
//! coordinated here (see below), on the thread that submitted them: the
//! caller awaits the reply anyway, so there is no pool and no queue
//! between it and the shards' own bounded inboxes.
//!
//! ## Cross-shard 2PL
//!
//! A spanning aggregate acquires its shards **in ascending shard-id
//! order** — a total order over the lock set, so two coordinators can
//! never hold-and-wait in a cycle: the one holding the lower shard id
//! always makes progress. Each shard serves a lock request by freezing
//! its scheduler between *grant* (committed prices + `#uu` staleness of
//! the requested items) and *release*, bounded by the coordinator's
//! deadline — a dead coordinator can stall a shard for at most
//! `LOCK_DEADLINE`. The grant snapshot is torn-free per shard, and
//! because every shard is held until the last grant arrives, the merged
//! read is a consistent cut across shards.
//!
//! Cross-shard aggregates bypass the per-shard QUTS queues (they are
//! served at grant time, not scheduled as transactions); they are
//! accounted separately in [`CrossShardStats`], so per-shard
//! conservation — every routed query resolves in exactly one shard's
//! counters — still holds exactly.
//!
//! ## Determinism & verification
//!
//! Each shard's engine seed derives as [`shard_seed`]`(base, k)`.
//! `quts-conformance` holds every slice of the hash partition to the
//! single-engine sim-vs-live oracle under that derived seed. The
//! *threaded* sharded engine's routing, conservation, isolation and 2PL
//! are checked by this module's live tests and by
//! `tests/engine_shard_{txn,chaos}.rs`.

use crate::config::EngineConfig;
use crate::repl::{Cluster, ClusterInner, ClusterStats, ControllerConfig};
use crate::repl::{ReplicaConfig, ShipConfig};
use crate::runtime::{
    EngineHandle, QueryError, QueryReply, QueryTicket, SubmitError, UpdateTicket,
};
use crate::stats::LiveStats;
use crate::supervisor::EngineState;
use parking_lot::Mutex;
use quts_db::{snapshot, QueryOp, StockId, Store, Trade};
use quts_qc::{QualityContract, StalenessAggregation};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shard map
// ---------------------------------------------------------------------

/// SplitMix64 finalizer — a high-quality, dependency-free integer hash.
/// Stable by construction: pure arithmetic on the input, no per-process
/// state, so every process ever built from this source agrees on it.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard an item lives on: a pure function of `(item id, shards)`.
///
/// # Panics
/// Panics if `shards` is zero.
#[inline]
pub fn shard_of(item: StockId, shards: u32) -> u32 {
    assert!(shards > 0, "shard count must be positive");
    (splitmix64(item.0 as u64) % shards as u64) as u32
}

/// The engine seed shard `k` derives from a base workload seed. Shared
/// by the live sharded engine and the conformance oracle — the
/// derivation *is* part of the differential contract.
#[inline]
pub fn shard_seed(base: u64, shard: u32) -> u64 {
    splitmix64(base ^ ((shard as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// The materialised item↔shard assignment for a fixed store size and
/// shard count: global→shard, global→local and per-shard member lists,
/// all derived from [`shard_of`] alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    to_shard: Vec<u32>,
    to_local: Vec<u32>,
    members: Vec<Vec<StockId>>,
}

impl ShardMap {
    /// Builds the map for `num_items` dense global ids over `shards`
    /// shards. Local ids are the global-id-ascending rank within each
    /// shard, so they are dense `0..members(k).len()` and as stable as
    /// the hash itself.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(num_items: u32, shards: u32) -> ShardMap {
        assert!(shards > 0, "shard count must be positive");
        let mut to_shard = Vec::with_capacity(num_items as usize);
        let mut to_local = Vec::with_capacity(num_items as usize);
        let mut members = vec![Vec::new(); shards as usize];
        for id in 0..num_items {
            let k = shard_of(StockId(id), shards);
            to_shard.push(k);
            to_local.push(members[k as usize].len() as u32);
            members[k as usize].push(StockId(id));
        }
        ShardMap {
            shards,
            to_shard,
            to_local,
            members,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning a global item.
    ///
    /// # Panics
    /// Panics on an id outside the mapped store.
    pub fn shard_of(&self, item: StockId) -> u32 {
        self.to_shard[item.index()]
    }

    /// The shard-local id of a global item.
    ///
    /// # Panics
    /// Panics on an id outside the mapped store.
    pub fn to_local(&self, item: StockId) -> StockId {
        StockId(self.to_local[item.index()])
    }

    /// Shard `k`'s member global ids, ascending (local id = position).
    pub fn members(&self, shard: u32) -> &[StockId] {
        &self.members[shard as usize]
    }

    /// The single shard all `items` live on, or `None` if they span
    /// shards (or the slice is empty).
    fn home_shard(&self, items: &[StockId]) -> Option<u32> {
        let first = self.shard_of(*items.first()?);
        items[1..]
            .iter()
            .all(|&s| self.shard_of(s) == first)
            .then_some(first)
    }

    /// Remaps every id in a query operator to its shard-local id.
    /// Meaningful only when all items share a shard (see
    /// [`ShardMap::home_shard`]).
    fn op_to_local(&self, op: &QueryOp) -> QueryOp {
        match op {
            QueryOp::Lookup(s) => QueryOp::Lookup(self.to_local(*s)),
            QueryOp::MovingAverage { stock, window } => QueryOp::MovingAverage {
                stock: self.to_local(*stock),
                window: *window,
            },
            QueryOp::Compare(stocks) => {
                QueryOp::Compare(stocks.iter().map(|&s| self.to_local(s)).collect())
            }
            QueryOp::Portfolio(positions) => QueryOp::Portfolio(
                positions
                    .iter()
                    .map(|&(s, w)| (self.to_local(s), w))
                    .collect(),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Tuning of a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (schedulers). 1 is the same engine with one
    /// shard.
    pub shards: u32,
    /// Template engine config applied to every shard. Per shard `k` the
    /// seed becomes [`shard_seed`]`(engine.seed, k)` and (with
    /// durability, above one shard) the directory becomes
    /// `<dir>/shard<k>`; one shard logs to `<dir>` itself.
    pub engine: EngineConfig,
    /// Ship every shard's WAL to replicas under this listener config;
    /// `None` ships nothing. Requires durability. Above one shard, a
    /// fixed port `p` binds `p + k` for shard `k`.
    pub ship: Option<ShipConfig>,
    /// The replicas each shard follows (each shard routes its reads over
    /// them and fails over to them). Above one shard, shard `k`'s copy of
    /// a replica lives in `<dir>/shard<k>` under the name
    /// `shard<k>-<name>`; one shard keeps `dir` and `name`.
    pub replicas: Vec<ReplicaConfig>,
}

/// Deadline for one cross-shard transaction: grant waits and shard
/// freezes are both bounded by it, so a dead coordinator can stall
/// a shard for at most this long.
const LOCK_DEADLINE: Duration = Duration::from_secs(2);

impl ShardConfig {
    /// A config with `shards` shards and default everything else.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> ShardConfig {
        assert!(shards > 0, "shard count must be positive");
        ShardConfig {
            shards,
            engine: EngineConfig::default(),
            ship: None,
            replicas: Vec::new(),
        }
    }

    /// Builder: sets the per-shard engine template.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::new(1)
    }
}

// ---------------------------------------------------------------------
// Cross-shard accounting
// ---------------------------------------------------------------------

/// Outcomes of cross-shard transactions, counted at the coordinator —
/// **disjoint** from per-shard [`LiveStats`] query counters, because a
/// spanning aggregate never enters a shard's QUTS queue. Conservation:
/// `submitted = committed + expired + failed + in-flight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrossShardStats {
    /// Spanning aggregates handed to the coordinator.
    pub submitted: u64,
    /// Resolved with a merged reply (profit may still be zero).
    pub committed: u64,
    /// Contract lifetime ran out before all grants arrived.
    pub expired: u64,
    /// A shard was down, rejected the lock until the deadline, or never
    /// granted in time.
    pub failed: u64,
}

// ---------------------------------------------------------------------
// The sharded engine
// ---------------------------------------------------------------------

/// `N` independent live engines behind one store-partitioning facade;
/// see the module docs. Owns the shards' clusters (start, shutdown);
/// everything a client does goes through its [`ShardedHandle`].
pub struct ShardedEngine {
    clusters: Vec<Cluster>,
    handle: ShardedHandle,
}

/// A cloneable client handle to a running [`ShardedEngine`]. Routes
/// every submission to the owning shard's current primary (remapped to
/// shard-local ids) and coordinates spanning aggregates over 2PL.
#[derive(Clone)]
pub struct ShardedHandle {
    map: Arc<ShardMap>,
    /// Each shard's cluster, shard-id order.
    shards: Arc<[Arc<ClusterInner>]>,
    /// Updated in place by every spanning read's coordinator;
    /// [`ShardedHandle::cross_shard_stats`] copies it out.
    cross: Arc<Mutex<CrossShardStats>>,
}

impl ShardedEngine {
    /// Starts one engine per shard over the hash-partitioned store.
    ///
    /// # Panics
    /// Panics where [`ShardedEngine::try_start`] returns an error.
    pub fn start(store: Store, config: ShardConfig) -> ShardedEngine {
        ShardedEngine::try_start(store, config).expect("open shard durability directories")
    }

    /// Starts every shard as
    /// [`Engine::try_start`](crate::Engine::try_start) does over its
    /// slice of the store: with durability, a shard's directory
    /// (`<dir>/shard<k>`, or `dir` itself for one shard) is initialised
    /// when fresh and recovered when initialised, and then it ships,
    /// follows its replicas and fails over as configured. The shard map is a pure
    /// function of the store size, so a directory written under the same
    /// store and shard count holds exactly each shard's slice.
    ///
    /// # Errors
    /// `InvalidData` when the directory is laid out for another shard
    /// count, before any shard starts. Otherwise any shard's start error
    /// — `InvalidData` when its directory holds another slice (another
    /// store or shard count), or when one of its replica directories is
    /// at a higher term than its primary's ([`Cluster::launch`], which
    /// refuses before the shard's directory is opened). Shards already
    /// started are shut down before the error returns.
    pub fn try_start(store: Store, config: ShardConfig) -> std::io::Result<ShardedEngine> {
        ShardedEngine::try_start_with(store, config, |_, cfg| cfg)
    }

    /// Like [`try_start`](Self::try_start), but lets the caller adjust
    /// each shard's *derived* engine config (after seed derivation and
    /// durability-directory scoping) before that shard starts. Chaos
    /// tests use this to arm a [`FaultPlan`](crate::FaultPlan) on a
    /// single shard and verify its failure stays contained; the fault
    /// arms that shard's first primary only, never one promoted after
    /// a failover.
    pub fn try_start_with(
        store: Store,
        config: ShardConfig,
        mut per_shard: impl FnMut(u32, EngineConfig) -> EngineConfig,
    ) -> std::io::Result<ShardedEngine> {
        refuse_another_layout(&config.engine, config.shards)?;
        let map = Arc::new(ShardMap::new(store.len() as u32, config.shards));
        // Each record moves to its shard exactly once; walking global
        // ids in ascending order makes a record's position in its part
        // the local id the map assigned it.
        let mut parts = vec![Vec::new(); config.shards as usize];
        for (record, &k) in store.into_records().into_iter().zip(&map.to_shard) {
            parts[k as usize].push(record);
        }
        let clusters = start_shards(config.shards, |k| {
            let sub = Store::from_records(std::mem::take(&mut parts[k as usize]));
            let cfg = per_shard(k, shard_engine_config(&config.engine, k, config.shards));
            let (ship, replicas) = shard_replication(&config, k);
            // A shard with replicas arms the detector at the default
            // heartbeat deadline; one without runs no monitor at all.
            let controller = ControllerConfig::default().with_auto_failover(true);
            Cluster::launch(sub, &cfg, ship, replicas, controller)
        })?;
        let handle = ShardedHandle {
            map,
            shards: clusters.iter().map(Cluster::shared).collect(),
            cross: Arc::default(),
        };
        Ok(ShardedEngine { clusters, handle })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ShardedHandle {
        self.handle.clone()
    }

    /// Shard `k`'s cluster: its failover reports, its current listener.
    ///
    /// # Panics
    /// Panics on an unknown shard.
    pub fn cluster(&self, shard: u32) -> &Cluster {
        &self.clusters[shard as usize]
    }

    /// Drains and stops every shard; returns the final per-shard
    /// statistics (each shard's serving primary), shard-id order. A
    /// handle clone that outlives this gets `EngineDown` from every
    /// submission.
    pub fn shutdown(self) -> Vec<LiveStats> {
        self.clusters.into_iter().map(Cluster::shutdown).collect()
    }
}

/// Starts shards `0..shards` in order; if one fails, shuts down those
/// already running before returning its error.
fn start_shards(
    shards: u32,
    mut start: impl FnMut(u32) -> std::io::Result<Cluster>,
) -> std::io::Result<Vec<Cluster>> {
    let mut clusters = Vec::with_capacity(shards as usize);
    for k in 0..shards {
        match start(k) {
            Ok(cluster) => clusters.push(cluster),
            Err(e) => {
                for cluster in clusters {
                    cluster.shutdown();
                }
                return Err(e);
            }
        }
    }
    Ok(clusters)
}

/// Refuses a durability directory laid out for another shard count.
/// One shard writes into `dir` itself and more write into
/// `<dir>/shard<k>` ([`shard_engine_config`]), so under the wrong count
/// shard 0's directory can be missing beside the data and would be
/// initialised afresh. Shard 0's directory under the other layout
/// being initialised is that case; it is refused before any shard
/// starts, with nothing written.
fn refuse_another_layout(template: &EngineConfig, shards: u32) -> std::io::Result<()> {
    let other = shard_engine_config(template, 0, if shards == 1 { 2 } else { 1 });
    match other.durability {
        Some(d) if snapshot::initialised(&d.dir) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{} holds shard 0 under another shard count than {shards}",
                d.dir.display()
            ),
        )),
        _ => Ok(()),
    }
}

/// Derives shard `k`'s engine config from the template: the derived
/// seed for every shard count, and above one shard the `shard<k>`
/// durability and crash-dump subdirectories, so no two shards write
/// into the same place. One shard keeps the template's directories, so
/// its files are exactly a plain [`Engine`](crate::Engine)'s, and either
/// starts over the other's directory.
fn shard_engine_config(template: &EngineConfig, k: u32, shards: u32) -> EngineConfig {
    let mut cfg = template.clone();
    cfg.seed = shard_seed(template.seed, k);
    if shards > 1 {
        let sub = format!("shard{k}");
        if let Some(d) = &mut cfg.durability {
            d.dir.push(&sub);
        }
        if let Some(dir) = &mut cfg.flight {
            dir.push(&sub);
        }
    }
    cfg
}

/// Shard `k`'s listener and replicas, scoped like its engine config:
/// above one shard a fixed listener port `p` becomes `p + k`, and each
/// replica moves to `<dir>/shard<k>` under the name `shard<k>-<name>`,
/// so no two shards bind, write or register the same thing. One shard
/// keeps them as configured.
fn shard_replication(config: &ShardConfig, k: u32) -> (Option<ShipConfig>, Vec<ReplicaConfig>) {
    let (mut ship, mut replicas) = (config.ship.clone(), config.replicas.clone());
    if config.shards > 1 {
        for ship in ship.iter_mut().filter(|s| s.addr.port() != 0) {
            ship.addr
                .set_port(ship.addr.port().saturating_add(k as u16));
        }
        for replica in &mut replicas {
            replica.dir.push(format!("shard{k}"));
            replica.name = format!("shard{k}-{}", replica.name);
        }
    }
    (ship, replicas)
}

/// Folds per-shard statistics into one engine-wide snapshot: counters,
/// ledgers and histograms sum/merge; `rho` becomes the unweighted mean
/// of the shard ρs (each shard's controller is independent, so a single
/// global ρ only exists as a summary); `rho_history` is left empty (the
/// per-shard series stay meaningful, a merged one would not be); WAL
/// watermarks take the per-shard maximum (each shard's LSN stream is
/// its own). The merge of one shard is that shard's snapshot, every
/// field as it is — `rho_history` included.
pub fn merge_shard_stats(stats: &[LiveStats]) -> LiveStats {
    if let [only] = stats {
        return only.clone();
    }
    let mut out = LiveStats::default();
    for s in stats {
        out.aggregates.merge(&s.aggregates);
        out.staleness.merge(&s.staleness);
        out.updates_applied += s.updates_applied;
        out.updates_invalidated += s.updates_invalidated;
        out.rho += s.rho;
        out.adaptations += s.adaptations;
        out.rho_history_truncated += s.rho_history_truncated;
        out.pending_queries += s.pending_queries;
        out.pending_updates += s.pending_updates;
        out.spans.merge(&s.spans);
        out.queue_full_rejections += s.queue_full_rejections;
        out.shed_expired += s.shed_expired;
        out.updates_dropped_overload += s.updates_dropped_overload;
        out.engine_restarts += s.engine_restarts;
        out.shed_on_restart_queries += s.shed_on_restart_queries;
        out.shed_on_restart_updates += s.shed_on_restart_updates;
        out.wal_appended += s.wal_appended;
        out.wal_last_lsn = out.wal_last_lsn.max(s.wal_last_lsn);
        out.wal_io_errors += s.wal_io_errors;
        out.snapshots_written += s.snapshots_written;
        out.snapshot_last_lsn = out.snapshot_last_lsn.max(s.snapshot_last_lsn);
        out.recovery_replayed_updates += s.recovery_replayed_updates;
        out.wal_truncated_bytes += s.wal_truncated_bytes;
        out.wal_fsyncs += s.wal_fsyncs;
        out.group_commits += s.group_commits;
        out.group_buffered += s.group_buffered;
        out.group_commit_batch.merge(&s.group_commit_batch);
        out.group_commit_wait_us.merge(&s.group_commit_wait_us);
        out.cross_shard_locks += s.cross_shard_locks;
        out.cross_shard_lock_timeouts += s.cross_shard_lock_timeouts;
    }
    if !stats.is_empty() {
        out.rho /= stats.len() as f64;
    }
    out
}

impl ShardedHandle {
    /// The item↔shard assignment.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The handle of shard `k`'s current primary (chaos tests address a
    /// specific scheduler).
    pub fn shard_handle(&self, shard: u32) -> EngineHandle {
        self.shards[shard as usize].router.primary()
    }

    /// Per-shard statistics snapshots of each current primary, shard-id
    /// order.
    pub fn shard_stats(&self) -> Vec<LiveStats> {
        self.primaries().map(|p| p.stats()).collect()
    }

    /// Per-shard lifecycle states of each current primary, shard-id
    /// order.
    pub fn shard_states(&self) -> Vec<EngineState> {
        self.primaries().map(|p| p.state()).collect()
    }

    /// Each shard's current primary, shard-id order.
    fn primaries(&self) -> impl Iterator<Item = EngineHandle> + '_ {
        self.shards.iter().map(|c| c.router.primary())
    }

    /// Each shard's cluster stats (term, failovers, listener, router),
    /// shard-id order.
    pub fn cluster_stats(&self) -> Vec<ClusterStats> {
        self.shards.iter().map(|c| c.stats()).collect()
    }

    /// Cross-shard transaction accounting.
    pub fn cross_shard_stats(&self) -> CrossShardStats {
        *self.cross.lock()
    }

    /// Submits a read-only query. Items on one shard (every single-item
    /// query, plus aggregates that happen to be co-located) go through
    /// that shard's read router, remapped to local ids: to a qualifying
    /// replica (the ticket comes back resolved) or the current primary's
    /// QUTS queue. Spanning
    /// aggregates run through the 2PL coordinator on the calling thread:
    /// the call blocks for at most `min(LOCK_DEADLINE, contract
    /// lifetime)` and the ticket it returns is already resolved — with
    /// the merged reply, [`QueryError::Expired`] if the lifetime ran out
    /// mid-acquisition, or [`QueryError::EngineDown`] if a shard never
    /// granted.
    ///
    /// # Panics
    /// Panics if the operator names an id outside the sharded store
    /// (mirrors [`Store::record`]).
    pub fn submit_query(
        &self,
        op: QueryOp,
        qc: QualityContract,
    ) -> Result<QueryTicket, SubmitError> {
        let items = op.accessed_items();
        match self.map.home_shard(&items) {
            Some(k) => {
                let local = self.map.op_to_local(&op);
                self.shards[k as usize].router.dispatch(local, qc)
            }
            None => Ok(self.submit_cross_shard(op, qc)),
        }
    }

    /// Submits a blind update to its owning shard.
    ///
    /// # Panics
    /// Panics on a stock id outside the sharded store.
    pub fn submit_update(&self, trade: Trade) -> Result<(), SubmitError> {
        let (k, local) = self.to_local(trade);
        self.shards[k]
            .router
            .with_primary(|p| p.submit_update(local))
    }

    /// Submits a durable update to its owning shard; the ticket resolves
    /// with the shard-local WAL LSN after the covering fsync.
    ///
    /// # Panics
    /// Panics on a stock id outside the sharded store.
    pub fn submit_update_durable(&self, trade: Trade) -> Result<UpdateTicket, SubmitError> {
        let (k, local) = self.to_local(trade);
        self.shards[k]
            .router
            .with_primary(|p| p.submit_update_durable(local))
    }

    /// The owning shard's index and the trade in its local ids.
    fn to_local(&self, trade: Trade) -> (usize, Trade) {
        let k = self.map.shard_of(trade.stock) as usize;
        let stock = self.map.to_local(trade.stock);
        (k, Trade { stock, ..trade })
    }

    /// Runs a spanning aggregate to completion on the calling thread;
    /// the returned ticket is already resolved.
    fn submit_cross_shard(&self, op: QueryOp, qc: QualityContract) -> QueryTicket {
        self.cross.lock().submitted += 1;
        let submitted = Instant::now();
        // Past its lifetime the read is `Expired` whatever the shards
        // grant, so neither the caller nor a frozen shard waits longer.
        let wait = Duration::try_from_secs_f64(qc.default_lifetime_ms() / 1e3)
            .map_or(LOCK_DEADLINE, |lifetime| lifetime.min(LOCK_DEADLINE));
        let txn = CrossShardTxn {
            map: &self.map,
            shards: &self.shards,
            op,
            qc,
            submitted,
            deadline: submitted + wait,
        };
        let out = txn.execute();
        {
            let mut cross = self.cross.lock();
            match &out {
                Ok(_) => cross.committed += 1,
                Err(QueryError::Expired) => cross.expired += 1,
                Err(_) => cross.failed += 1,
            }
        }
        QueryTicket::resolved(out)
    }
}

// ---------------------------------------------------------------------
// Cross-shard transactions
// ---------------------------------------------------------------------

/// One spanning aggregate under 2PL: acquires every involved shard in
/// **ascending shard-id order** (a total order over the lock set —
/// deadlock-free, because any pair of coordinators contends in the same
/// order, whichever threads they run on), reads the granted committed
/// snapshot, computes the aggregate and the contract's profit, then
/// releases every shard. A coordinator that panics drops its `held`
/// release senders, which a frozen shard treats as a release.
struct CrossShardTxn<'a> {
    map: &'a ShardMap,
    shards: &'a [Arc<ClusterInner>],
    op: QueryOp,
    qc: QualityContract,
    submitted: Instant,
    deadline: Instant,
}

impl CrossShardTxn<'_> {
    fn execute(&self) -> Result<QueryReply, QueryError> {
        let items = self.op.accessed_items();
        // Group the read set per shard, ascending shard id (BTreeMap
        // iteration order *is* the lock order).
        let mut per_shard: std::collections::BTreeMap<u32, Vec<StockId>> =
            std::collections::BTreeMap::new();
        for &g in items.iter() {
            per_shard.entry(self.map.shard_of(g)).or_default().push(g);
        }

        // Growing phase: grants held so far (their release senders).
        let mut held: Vec<crossbeam::channel::Sender<()>> = Vec::with_capacity(per_shard.len());
        let mut prices: HashMap<StockId, f64> = HashMap::with_capacity(items.len());
        let mut unapplied: HashMap<StockId, u64> = HashMap::with_capacity(items.len());
        for (&k, globals) in &per_shard {
            let locals: Vec<StockId> = globals.iter().map(|&g| self.map.to_local(g)).collect();
            let grant = loop {
                let lock = |p: &EngineHandle| p.submit_lock(locals.clone(), self.deadline);
                match self.shards[k as usize].router.with_primary(lock) {
                    Ok((grant_rx, release_tx)) => {
                        let left = self.deadline.saturating_duration_since(Instant::now());
                        match grant_rx.recv_timeout(left) {
                            Ok(grant) => {
                                held.push(release_tx);
                                break grant;
                            }
                            // Timed out or the shard refused (unknown
                            // item / died mid-grant): shrink and fail.
                            Err(_) => return self.abort(held),
                        }
                    }
                    // Admission queue full: deadline-bounded retry, no
                    // sleeps — the shard drains its channel every
                    // scheduling step.
                    Err(SubmitError::QueueFull) => {
                        if Instant::now() >= self.deadline {
                            return self.abort(held);
                        }
                        std::thread::yield_now();
                    }
                    Err(SubmitError::EngineDown) => return self.abort(held),
                }
            };
            for (i, &g) in globals.iter().enumerate() {
                prices.insert(g, grant.prices[i]);
                unapplied.insert(g, grant.unapplied[i]);
            }
        }

        // Every shard is frozen: the merged read is a consistent cut.
        // Only `Compare` and `Portfolio` reach here: a single-item query
        // always has a home shard.
        let result = self.op.over_prices(|s| prices[&s]);
        let staleness_per_item: Vec<f64> = items.iter().map(|g| unapplied[g] as f64).collect();
        let staleness = StalenessAggregation::Max.aggregate(&staleness_per_item);
        let rt_ms = self.submitted.elapsed().as_secs_f64() * 1e3;

        // Shrinking phase: release every shard before replying.
        for release in held {
            let _ = release.send(());
        }

        let (qos, qod) = self
            .qc
            .answer(rt_ms, staleness)
            .ok_or(QueryError::Expired)?;
        Ok(QueryReply {
            result,
            rt_ms,
            staleness,
            qos,
            qod,
        })
    }

    /// Releases everything held and reports the failure kind: expiry if
    /// the contract ran out while acquiring, engine-down otherwise.
    fn abort(&self, held: Vec<crossbeam::channel::Sender<()>>) -> Result<QueryReply, QueryError> {
        for release in held {
            let _ = release.send(());
        }
        let rt_ms = self.submitted.elapsed().as_secs_f64() * 1e3;
        match self.qc.answer(rt_ms, 0.0) {
            None => Err(QueryError::Expired),
            Some(_) => Err(QueryError::EngineDown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityConfig;
    use crate::runtime::Engine;
    use proptest::prelude::*;
    use quts_db::QueryResult;
    use quts_qc::QualityContract;

    // ---- shard map unit tests ----

    #[test]
    fn map_round_trips_and_is_total() {
        let map = ShardMap::new(100, 4);
        assert_eq!(map.to_shard.len(), 100);
        let mut seen = 0u32;
        for k in 0..4 {
            let members = map.members(k);
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "members ascend (local id = rank)"
            );
            for (local, &g) in members.iter().enumerate() {
                assert_eq!(map.shard_of(g), k);
                assert_eq!(map.to_local(g), StockId(local as u32));
            }
            seen += members.len() as u32;
        }
        assert_eq!(seen, 100, "every item lives on exactly one shard");
    }

    #[test]
    fn single_shard_is_identity() {
        let map = ShardMap::new(64, 1);
        for i in 0..64 {
            assert_eq!(map.shard_of(StockId(i)), 0);
            assert_eq!(map.to_local(StockId(i)), StockId(i));
        }
    }

    #[test]
    fn home_shard_detects_spanning() {
        let map = ShardMap::new(256, 4);
        // Find two items on different shards (must exist at 256 items).
        let a = StockId(0);
        let b = (1..256)
            .map(StockId)
            .find(|&s| map.shard_of(s) != map.shard_of(a))
            .expect("256 items over 4 shards span");
        assert_eq!(map.home_shard(&[a]), Some(map.shard_of(a)));
        assert_eq!(map.home_shard(&[a, b]), None);
        assert_eq!(map.home_shard(&[]), None);
    }

    #[test]
    fn seeds_differ_per_shard_and_are_stable() {
        let s: Vec<u64> = (0..8).map(|k| shard_seed(42, k)).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(s[i], s[j], "shard seeds must differ");
            }
        }
        assert_eq!(s, (0..8).map(|k| shard_seed(42, k)).collect::<Vec<_>>());
    }

    proptest! {
        // The shard map is a pure stable function of (id, shard count):
        // same inputs, same assignment, however and whenever computed.
        #[test]
        fn prop_assignment_is_pure_and_stable(id in 0u32..10_000, shards in 1u32..17) {
            let a = shard_of(StockId(id), shards);
            let b = shard_of(StockId(id), shards);
            prop_assert_eq!(a, b);
            prop_assert!(a < shards);
            // The materialised map agrees with the pure function.
            if id < 2048 {
                let map = ShardMap::new(2048, shards);
                prop_assert_eq!(map.shard_of(StockId(id)), a);
            }
        }

        // Rebuilding the map (a process restart) yields the identical
        // assignment, independent of iteration order by construction.
        #[test]
        fn prop_map_is_restart_identical(n in 1u32..512, shards in 1u32..9) {
            let a = ShardMap::new(n, shards);
            let b = ShardMap::new(n, shards);
            prop_assert_eq!(a, b);
        }

        // Every item routes to exactly one shard and local ids are a
        // dense bijection within it.
        #[test]
        fn prop_map_is_total_and_dense(n in 1u32..512, shards in 1u32..9) {
            let map = ShardMap::new(n, shards);
            let total: usize = (0..shards).map(|k| map.members(k).len()).sum();
            prop_assert_eq!(total, n as usize);
            for id in 0..n {
                let g = StockId(id);
                let k = map.shard_of(g);
                let l = map.to_local(g);
                prop_assert_eq!(map.members[k as usize][l.index()], g);
            }
        }

        // Repartitioning only moves items whose shard actually changed:
        // the n-shard and m-shard assignments agree exactly on the set
        // of items whose pure hash bucket agrees.
        #[test]
        fn prop_repartition_moves_only_changed(n in 1u32..512, from in 1u32..9, to in 1u32..9) {
            let a = ShardMap::new(n, from);
            let b = ShardMap::new(n, to);
            for id in 0..n {
                let g = StockId(id);
                let moved = a.shard_of(g) != b.shard_of(g);
                let hash_changed = shard_of(g, from) != shard_of(g, to);
                prop_assert_eq!(moved, hash_changed);
            }
        }
    }

    // ---- live sharded engine smoke ----

    #[test]
    fn live_sharded_routes_and_conserves() {
        let store = Store::with_synthetic_stocks(16);
        let engine = ShardedEngine::start(store, ShardConfig::new(4));
        let handle = engine.handle();
        for i in 0..16u32 {
            handle
                .submit_update(Trade {
                    stock: StockId(i),
                    price: 200.0 + i as f64,
                    volume: 1,
                    trade_time_ms: 0,
                })
                .expect("admitted");
        }
        let mut tickets = Vec::new();
        for i in 0..16u32 {
            tickets.push(
                handle
                    .submit_query(
                        QueryOp::Lookup(StockId(i)),
                        QualityContract::step(5.0, 5000.0, 5.0, 1),
                    )
                    .expect("admitted"),
            );
        }
        for (i, t) in tickets.iter().enumerate() {
            let reply = t
                .recv_timeout(Duration::from_secs(20))
                .expect("query resolves");
            // QUTS may serve the query before the update applies (that
            // is the staleness tradeoff) — the answer is the initial or
            // the updated price, never anything else.
            match reply.result {
                QueryResult::Price(p) => {
                    assert!(
                        p == 100.0 || p == 200.0 + i as f64,
                        "stock {i}: unexpected price {p}"
                    );
                }
                other => panic!("lookup returned {other:?}"),
            }
        }
        let stats = engine.shutdown();
        assert_eq!(stats.len(), 4);
        let committed: u64 = stats
            .iter()
            .map(|s| s.aggregates.committed + s.shed_expired)
            .sum();
        assert_eq!(committed, 16, "each query resolved in exactly one shard");
        let applied: u64 = stats
            .iter()
            .map(|s| s.updates_applied + s.updates_invalidated)
            .sum();
        assert_eq!(applied, 16);
    }

    #[test]
    fn live_cross_shard_portfolio_reads_consistent_snapshot() {
        let store = Store::with_synthetic_stocks(32);
        let engine = ShardedEngine::start(store, ShardConfig::new(4));
        let handle = engine.handle();
        let (a, b) = spanning_pair(handle.map());
        let ticket = handle
            .submit_query(
                QueryOp::Portfolio(vec![(a, 2.0), (b, 3.0)]),
                QualityContract::step(5.0, 5000.0, 5.0, 1),
            )
            .expect("admitted");
        let reply = ticket
            .recv_timeout(Duration::from_secs(20))
            .expect("cross-shard aggregate resolves");
        assert_eq!(reply.result, QueryResult::Value(2.0 * 100.0 + 3.0 * 100.0));
        let cross = handle.cross_shard_stats();
        assert_eq!(cross.submitted, 1);
        assert_eq!(cross.committed, 1);
        assert_eq!(cross.failed, 0);
        // The shards that served the grant counted it — read from the
        // final stats: a shard counts a grant just after publishing it,
        // and the reply no longer crosses a thread on its way here.
        let locks: u64 = engine.shutdown().iter().map(|s| s.cross_shard_locks).sum();
        assert_eq!(locks, 2);
    }

    /// Two items of a synthetic store that live on different shards.
    fn spanning_pair(map: &ShardMap) -> (StockId, StockId) {
        let a = StockId(0);
        let b = (1..map.to_shard.len() as u32)
            .map(StockId)
            .find(|&s| map.shard_of(s) != map.shard_of(a))
            .expect("the store spans shards");
        (a, b)
    }

    #[test]
    fn a_spanning_read_is_resolved_when_submit_returns() {
        let engine = ShardedEngine::start(Store::with_synthetic_stocks(32), ShardConfig::new(4));
        let handle = engine.handle();
        let (a, b) = spanning_pair(handle.map());
        let ticket = handle
            .submit_query(
                QueryOp::Portfolio(vec![(a, 2.0), (b, 3.0)]),
                QualityContract::step(5.0, 5000.0, 5.0, 1),
            )
            .expect("the coordinator takes it");
        assert!(
            matches!(ticket.try_recv(), Some(Ok(_))),
            "the coordinator ran on this thread: nothing left to wait for"
        );
        engine.shutdown();
    }

    #[test]
    fn a_spanning_read_after_shutdown_resolves_engine_down() {
        let engine = ShardedEngine::start(Store::with_synthetic_stocks(32), ShardConfig::new(2));
        let handle = engine.handle();
        let (a, b) = spanning_pair(handle.map());
        engine.shutdown();
        // The clone outlived the engine: the first `submit_lock` is
        // refused, so the read fails at once instead of waiting out
        // `LOCK_DEADLINE`, and it is still counted.
        let asked = Instant::now();
        let late = handle
            .submit_query(
                QueryOp::Compare(vec![a, b]),
                QualityContract::step(5.0, 5000.0, 5.0, 1),
            )
            .expect("the coordinator takes it");
        assert!(
            asked.elapsed() < LOCK_DEADLINE / 2,
            "waited for a dead shard"
        );
        assert!(matches!(late.try_recv(), Some(Err(QueryError::EngineDown))));
        let cross = handle.cross_shard_stats();
        assert_eq!(
            cross.submitted,
            cross.committed + cross.expired + cross.failed,
            "nothing is in flight once submit returned"
        );
        assert_eq!((cross.submitted, cross.failed), (1, 1));
    }

    // ---- merged statistics ----

    /// A snapshot with every field set to something non-default. No
    /// `..`: a new `LiveStats` field does not compile until it is given
    /// a value here, and then the merge tests below check it is merged.
    fn busy_stats() -> LiveStats {
        let mut aggregates = quts_qc::QcAggregates::new();
        aggregates.submit(&QualityContract::step(10.0, 50.0, 5.0, 1));
        aggregates.gain(10.0, 5.0);
        let mut online = quts_metrics::OnlineStats::new();
        online.push(3.5);
        online.push(9.25);
        let mut hist = quts_metrics::LogHistogram::new();
        hist.record(120);
        hist.record(7000);
        let mut spans = quts_metrics::LifecycleSpans::new();
        spans.record_commit(10, 25, 90, 2);
        spans.record_expiry(false);
        spans.record_expiry(true);
        spans.record_update_apply(40);
        LiveStats {
            aggregates,
            staleness: online,
            updates_applied: 1,
            updates_invalidated: 2,
            rho: 0.625,
            adaptations: 3,
            rho_history: vec![0.5, 0.625],
            rho_history_truncated: 4,
            pending_queries: 5,
            pending_updates: 6,
            spans,
            queue_full_rejections: 7,
            shed_expired: 8,
            updates_dropped_overload: 9,
            engine_restarts: 10,
            shed_on_restart_queries: 11,
            shed_on_restart_updates: 12,
            wal_appended: 13,
            wal_last_lsn: 14,
            wal_io_errors: 15,
            snapshots_written: 16,
            snapshot_last_lsn: 17,
            recovery_replayed_updates: 18,
            wal_truncated_bytes: 19,
            wal_fsyncs: 20,
            group_commits: 21,
            group_buffered: 22,
            group_commit_batch: hist.clone(),
            group_commit_wait_us: hist,
            cross_shard_locks: 23,
            cross_shard_lock_timeouts: 24,
        }
    }

    #[test]
    fn merge_of_one_shard_is_that_shards_snapshot() {
        let s = busy_stats();
        let merged = merge_shard_stats(std::slice::from_ref(&s));
        assert_eq!(format!("{merged:?}"), format!("{s:?}"));
    }

    #[test]
    fn merging_an_idle_shard_in_keeps_every_field() {
        let s = busy_stats();
        let merged = merge_shard_stats(&[s.clone(), LiveStats::default()]);
        // The two documented non-additive fields: ρ is the mean over
        // shards, and the merged history is empty.
        let expected = LiveStats {
            rho: s.rho / 2.0,
            rho_history: Vec::new(),
            ..s
        };
        assert_eq!(format!("{merged:?}"), format!("{expected:?}"));
    }

    // ---- recovery ----

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("quts-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(shards: u32, dir: &std::path::Path) -> ShardConfig {
        ShardConfig::new(shards)
            .with_engine(EngineConfig::default().with_durability(DurabilityConfig::new(dir)))
    }

    /// Starts `shards` durable shards over 64 stocks in `dir`, moves
    /// every price to `200 + id` and shuts down cleanly.
    fn write_durable_directory(shards: u32, dir: &std::path::Path) {
        let engine = ShardedEngine::start(
            Store::with_synthetic_stocks(64),
            durable_config(shards, dir),
        );
        let handle = engine.handle();
        let tickets: Vec<_> = (0..64u32)
            .map(|i| {
                handle
                    .submit_update_durable(Trade {
                        stock: StockId(i),
                        price: 200.0 + i as f64,
                        volume: 1,
                        trade_time_ms: 0,
                    })
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            t.recv_timeout(Duration::from_secs(20)).expect("durable");
        }
        engine.shutdown();
    }

    fn assert_recovered_prices(engine: &ShardedEngine) {
        let handle = engine.handle();
        for i in 0..64u32 {
            let reply = handle
                .submit_query(
                    QueryOp::Lookup(StockId(i)),
                    QualityContract::step(5.0, 5000.0, 5.0, 64),
                )
                .expect("admitted")
                .recv_timeout(Duration::from_secs(20))
                .expect("query resolves");
            assert_eq!(reply.result, QueryResult::Price(200.0 + i as f64));
        }
    }

    /// Starts `shards` durable shards over `items` stocks in `dir`.
    fn restart(items: u32, shards: u32, dir: &std::path::Path) -> std::io::Result<ShardedEngine> {
        ShardedEngine::try_start(
            Store::with_synthetic_stocks(items),
            durable_config(shards, dir),
        )
    }

    #[test]
    fn recover_rejects_a_directory_that_disagrees_with_the_map() {
        let dir = durable_dir("recover-mismatch");
        write_durable_directory(4, &dir);

        let wrong_items = restart(65, 4, &dir);
        assert_eq!(
            wrong_items.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidData),
            "wrong store size"
        );
        let wrong_shards = restart(64, 2, &dir);
        assert_eq!(
            wrong_shards.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidData),
            "4-shard directory opened as 2 shards"
        );
        let flat = restart(64, 1, &dir);
        assert_eq!(
            flat.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidData),
            "4-shard directory opened as 1 shard"
        );
        assert!(
            !dir.join("MANIFEST").exists(),
            "nothing initialised beside it"
        );

        // The refused attempts shut their shards down cleanly: the
        // directory still recovers under the shape that wrote it.
        let engine = restart(64, 4, &dir).expect("recovers");
        assert_recovered_prices(&engine);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        // A one-shard directory opened as 2 shards.
        write_durable_directory(1, &dir);
        let split = restart(64, 2, &dir);
        assert_eq!(
            split.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidData),
            "1-shard directory opened as 2 shards"
        );
        assert!(
            !dir.join("shard0").exists(),
            "nothing initialised beneath it"
        );
        let engine = restart(64, 1, &dir).expect("recovers");
        assert_recovered_prices(&engine);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shard_directory_is_a_plain_engine_directory() {
        let dir = durable_dir("flat-layout");
        write_durable_directory(1, &dir);
        assert!(
            dir.join("MANIFEST").exists(),
            "flat layout: MANIFEST in <dir>"
        );
        assert!(!dir.join("shard0").exists(), "no shard0/ under one shard");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names
                .iter()
                .any(|n| n.starts_with("wal-") && n.ends_with(".log")),
            "{names:?}"
        );
        assert!(
            !names.iter().any(|n| n.contains("shard")),
            "untagged segments: {names:?}"
        );

        // A plain engine and a one-shard engine start over the same
        // directory.
        let plain = Engine::try_start(
            Store::with_synthetic_stocks(64),
            EngineConfig::default().with_durability(DurabilityConfig::new(&dir)),
        )
        .expect("plain restart");
        assert_eq!(plain.handle().shared.num_items, 64);
        assert_eq!(plain.stats().snapshot_last_lsn, 64);
        plain.shutdown();
        let engine = restart(64, 1, &dir).expect("recovers");
        assert_recovered_prices(&engine);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
