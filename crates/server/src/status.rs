//! The status verbs: `METRICS`, `STATS` and `REPL`.
//!
//! Each request takes one [`Snapshot`] of everything the verbs report,
//! and each verb is a pure function of it, so a test can render all
//! three with no socket. `METRICS` walks [`METRICS`], the one table that
//! declares every family, in output order; a family whose reader finds
//! nothing (the replication and routing families on a server without
//! them) is left out. `STATS` and `REPL` keep their own formats.
//!
//! Replication is read from each shard's cluster. Its unlabeled families
//! report the merge over shards, the way the headline engine families
//! do: the highest term, summed counters, merged histograms. A replica's
//! lag is measured against its own shard's WAL. A failover restarts the
//! promoted shard's engine counters from its recovery, which a scraper
//! reads as a counter reset.
//!
//! Every label value is a static string, a shard index or a replica
//! name, and a primary accepts only names of `[A-Za-z0-9._-]`, so no
//! label needs escaping.

use quts_engine::{
    merge_shard_stats, ClusterStats, CrossShardStats, EngineState, LiveStats, ReplicaPeerStats,
    RouterStats, ShardedHandle, ShipTotals,
};
use quts_metrics::exposition::{render, Family, Sample::*};
use std::fmt::Write as _;

/// Everything the status verbs report, read once per request.
pub(crate) struct Snapshot {
    /// Per-shard engine statistics, shard-id order.
    shards: Vec<LiveStats>,
    /// Whether each shard's scheduler is running, shard-id order.
    up: Vec<bool>,
    /// `shards` merged (see [`merge_shard_stats`]): the headline series.
    merged: LiveStats,
    /// The cross-shard coordinator's outcomes.
    cross: CrossShardStats,
    /// Each shard's cluster, shard-id order.
    clusters: Vec<ClusterStats>,
    /// `clusters` merged (see [`merge_clusters`]), when a shard ships
    /// its WAL or routes reads: the unlabeled replication series.
    repl: Option<ClusterStats>,
}

/// Folds per-shard cluster stats the way [`merge_shard_stats`] folds
/// engine stats: the highest term, summed counters and pool sizes,
/// merged histograms; `None` when no cluster ships or routes. `peers`
/// stays empty, since a replica's series needs its shard.
fn merge_clusters(clusters: &[ClusterStats]) -> Option<ClusterStats> {
    let replicated = |c: &ClusterStats| c.ship.is_some() || c.router.is_some();
    if !clusters.iter().any(replicated) {
        return None;
    }
    let mut out = ClusterStats::default();
    for c in clusters {
        out.term = out.term.max(c.term);
        out.failovers += c.failovers;
        out.failed_failovers += c.failed_failovers;
        out.lost_replicas += c.lost_replicas;
        out.pool += c.pool;
        if let Some(ship) = &c.ship {
            let o = out.ship.get_or_insert_with(ShipTotals::default);
            o.fenced += ship.fenced;
            o.lag_frames.merge(&ship.lag_frames);
            o.apply_lag_us.merge(&ship.apply_lag_us);
        }
        if let Some(r) = &c.router {
            let o = out.router.get_or_insert_with(RouterStats::default);
            o.routed_replica += r.routed_replica;
            o.routed_primary += r.routed_primary;
            o.shed_busy += r.shed_busy;
            o.demotions += r.demotions;
            o.rejoins += r.rejoins;
            o.qod_violations += r.qod_violations;
            o.repoints += r.repoints;
        }
    }
    Some(out)
}

impl Snapshot {
    /// Reads every source the status verbs report.
    pub(crate) fn take(engine: &ShardedHandle) -> Snapshot {
        let shards = engine.shard_stats();
        let clusters = engine.cluster_stats();
        Snapshot {
            up: engine
                .shard_states()
                .iter()
                .map(|state| *state == EngineState::Running)
                .collect(),
            merged: merge_shard_stats(&shards),
            shards,
            cross: engine.cross_shard_stats(),
            repl: merge_clusters(&clusters),
            clusters,
        }
    }

    /// Every replica each shard's listener has seen, with its lag: the
    /// LSNs of *its shard's* WAL it has not yet applied.
    fn peers(&self) -> impl Iterator<Item = (u64, &ReplicaPeerStats)> {
        let shards = self.shards.iter().zip(&self.clusters);
        shards.flat_map(|(shard, c)| {
            let lag = |p: &ReplicaPeerStats| shard.wal_last_lsn.saturating_sub(p.applied_lsn);
            c.peers.iter().map(move |p| (lag(p), p))
        })
    }
}

/// The `METRICS` response: the table rendered over `s`. Its final
/// `# EOF` line doubles as the end-of-response marker.
pub(crate) fn metrics(s: &Snapshot) -> String {
    // `writeln!` in the connection loop supplies the final newline.
    render(METRICS, s).trim_end().to_string()
}

/// The `STATS` response: the headline counters on one line.
pub(crate) fn stats(s: &Snapshot) -> String {
    let m = &s.merged;
    format!(
        "OK submitted={} committed={} profit={:.2} of={:.2} rho={:.3} applied={} \
         invalidated={} rejected={} shed={} dropped={} restarts={} shards={}",
        m.aggregates.submitted,
        m.aggregates.committed,
        m.aggregates.q_gained(),
        m.aggregates.q_max(),
        m.rho,
        m.updates_applied,
        m.updates_invalidated,
        m.queue_full_rejections,
        m.shed_expired,
        m.updates_dropped_overload,
        m.engine_restarts,
        s.shards.len(),
    )
}

/// The `REPL` response: each shard's term and failover counts (one
/// `role` line, with `shard=<k>` above one shard), the merged router
/// counters and one line per replica a listener has seen — `replica
/// name= connected= applied= durable= lag= frames_shipped= bootstraps=
/// connections=` — `# EOF`-terminated like `METRICS`.
pub(crate) fn repl(s: &Snapshot) -> String {
    let Some(repl) = &s.repl else {
        return "ERR replication disabled".into();
    };
    let mut out = format!("OK replication primary_lsn={}", s.merged.wal_last_lsn);
    // The serving node is by definition the primary of its term.
    for (k, c) in s.clusters.iter().enumerate() {
        let shard = (s.clusters.len() > 1).then(|| format!(" shard={k}"));
        let shard = shard.unwrap_or_default();
        let _ = write!(
            out,
            "\nrole primary{shard} term={} failovers={} failed={} lost={}",
            c.term, c.failovers, c.failed_failovers, c.lost_replicas
        );
    }
    if let Some(r) = &repl.router {
        let _ = write!(
            out,
            "\nrouter replicas={} routed_replica={} routed_primary={} shed_busy={} \
             demotions={} rejoins={} qod_violations={} repoints={}",
            repl.pool,
            r.routed_replica,
            r.routed_primary,
            r.shed_busy,
            r.demotions,
            r.rejoins,
            r.qod_violations,
            r.repoints,
        );
    }
    for (lag, peer) in s.peers() {
        let _ = write!(
            out,
            "\nreplica name={} connected={} applied={} durable={} lag={} \
             frames_shipped={} bootstraps={} connections={}",
            peer.name,
            peer.connected,
            peer.applied_lsn,
            peer.durable_lsn,
            lag,
            peer.frames_shipped,
            peer.bootstraps,
            peer.connections,
        );
    }
    out.push_str("\n# EOF");
    out
}

/// One series per item, labeled by its index: the per-shard families.
fn by_shard<T, U>(items: &[T], value: impl Fn(&T) -> U) -> Vec<(String, U)> {
    items
        .iter()
        .enumerate()
        .map(|(k, item)| (k.to_string(), value(item)))
        .collect()
}

/// One series per replica a shard's listener has seen, labeled by name
/// (names are scoped per shard); `None` without replication.
fn by_replica<U>(
    s: &Snapshot,
    value: impl Fn(u64, &ReplicaPeerStats) -> U,
) -> Option<Vec<(String, U)>> {
    s.repl.as_ref()?;
    let series = s.peers().map(|(lag, p)| (p.name.clone(), value(lag, p)));
    Some(series.collect())
}

/// Every `METRICS` family, in output order. The headline series are
/// sums or means over shards (see [`merge_shard_stats`]); the per-shard
/// breakdown follows under `quts_shard_*` with a `shard` label. Laid out
/// by hand so each family reads as one block: name, help, reader.
#[rustfmt::skip]
const METRICS: &[Family<Snapshot>] = &[
    Family { name: "quts_queries_submitted_total",
             help: "Queries admitted by the engine",
             read: |s| Some(Counter(s.merged.aggregates.submitted)) },
    Family { name: "quts_queries_committed_total",
             help: "Queries answered within their contract lifetime",
             read: |s| Some(Counter(s.merged.aggregates.committed)) },
    Family { name: "quts_profit_gained",
             help: "Profit earned under Quality Contracts",
             read: |s| Some(Gauge(s.merged.aggregates.q_gained())) },
    Family { name: "quts_profit_offered",
             help: "Maximum profit offered by submitted contracts",
             read: |s| Some(Gauge(s.merged.aggregates.q_max())) },
    Family { name: "quts_rho",
             help: "Current query-class bias (rho)",
             read: |s| Some(Gauge(s.merged.rho)) },
    Family { name: "quts_adaptations_total",
             help: "Completed rho adaptation periods",
             read: |s| Some(Counter(s.merged.adaptations)) },
    Family { name: "quts_rho_history_truncated_total",
             help: "Adaptation-period rho values discarded from the bounded history",
             read: |s| Some(Counter(s.merged.rho_history_truncated)) },
    Family { name: "quts_queue_depth",
             help: "Admitted transactions not yet executed",
             read: |s| Some(Gauges("class", vec![
                 ("query".into(), s.merged.pending_queries as f64),
                 ("update".into(), s.merged.pending_updates as f64),
             ])) },
    Family { name: "quts_updates_applied_total",
             help: "Updates whose value reached the store",
             read: |s| Some(Counter(s.merged.updates_applied)) },
    Family { name: "quts_updates_invalidated_total",
             help: "Updates dropped unapplied by register-table invalidation",
             read: |s| Some(Counter(s.merged.updates_invalidated)) },
    Family { name: "quts_shed",
             help: "Work lost to overload, by cause",
             read: |s| Some(Gauges("reason", [
                 ("queue_full", s.merged.queue_full_rejections),
                 ("lifetime_expired", s.merged.shed_expired),
                 ("update_overload", s.merged.updates_dropped_overload),
                 ("restart_lost_query", s.merged.shed_on_restart_queries),
                 ("restart_lost_update", s.merged.shed_on_restart_updates),
             ].map(|(reason, n)| (reason.into(), n as f64)).into())) },
    Family { name: "quts_engine_restarts_total",
             help: "Scheduler restarts after panics",
             read: |s| Some(Counter(s.merged.engine_restarts)) },
    // Durability & recovery: how much the WAL wrote, what recovery
    // replayed, and what a torn tail cost — the counters that make
    // post-crash QoD auditable.
    Family { name: "quts_wal_appended_total",
             help: "Updates appended to the write-ahead log before enqueue",
             read: |s| Some(Counter(s.merged.wal_appended)) },
    Family { name: "quts_wal_io_errors_total",
             help: "WAL and snapshot IO errors absorbed (fail-stop appends, failed shutdown snapshots)",
             read: |s| Some(Counter(s.merged.wal_io_errors)) },
    Family { name: "quts_snapshots_written_total",
             help: "Snapshots published (periodic cadence plus clean shutdown)",
             read: |s| Some(Counter(s.merged.snapshots_written)) },
    Family { name: "quts_snapshot_last_lsn",
             help: "WAL LSN covered by the most recent snapshot",
             read: |s| Some(Gauge(s.merged.snapshot_last_lsn as f64)) },
    Family { name: "quts_recovery_replayed_updates",
             help: "Updates replayed from the WAL tail across recoveries",
             read: |s| Some(Counter(s.merged.recovery_replayed_updates)) },
    Family { name: "quts_wal_truncated_bytes",
             help: "Torn or corrupt WAL bytes truncated during recoveries",
             read: |s| Some(Counter(s.merged.wal_truncated_bytes)) },
    // Group commit: fsync amortization (`quts_wal_appended_total /
    // quts_wal_fsync_total` is the realized records-per-fsync) plus the
    // batch-size and added-wait distributions.
    Family { name: "quts_wal_fsync_total",
             help: "WAL fsyncs issued across all engine incarnations",
             read: |s| Some(Counter(s.merged.wal_fsyncs)) },
    Family { name: "quts_group_commits_total",
             help: "Commit groups closed (one batched append, at most one fsync each)",
             read: |s| Some(Counter(s.merged.group_commits)) },
    Family { name: "quts_group_commit_buffered",
             help: "Updates parked in the commit buffer, not yet durable or acked",
             read: |s| Some(Gauge(s.merged.group_buffered as f64)) },
    Family { name: "quts_group_commit_batch_size",
             help: "Records per committed group",
             read: |s| Some(Histogram(&s.merged.group_commit_batch)) },
    Family { name: "quts_group_commit_wait_us",
             help: "Per-update wait from commit-buffer entry to covering fsync return",
             read: |s| Some(Histogram(&s.merged.group_commit_wait_us)) },
    Family { name: "quts_response_us",
             help: "Submission-to-answer latency of committed queries",
             read: |s| Some(Histogram(&s.merged.spans.response_us)) },
    Family { name: "quts_queue_wait_us",
             help: "Submission-to-dispatch wait of committed queries",
             read: |s| Some(Histogram(&s.merged.spans.queue_wait_us)) },
    Family { name: "quts_service_us",
             help: "Dispatch-to-answer service time of committed queries",
             read: |s| Some(Histogram(&s.merged.spans.service_us)) },
    Family { name: "quts_staleness",
             help: "Unapplied updates observed at answer time",
             read: |s| Some(Histogram(&s.merged.spans.staleness)) },
    Family { name: "quts_update_delay_us",
             help: "Arrival-to-apply delay of applied updates",
             read: |s| Some(Histogram(&s.merged.spans.update_delay_us)) },
    Family { name: "quts_wal_last_lsn",
             help: "Highest LSN appended to the primary WAL (replication watermark)",
             read: |s| Some(Gauge(s.merged.wal_last_lsn as f64)) },
    // Replication: only on a server that ships its WAL.
    Family { name: "quts_repl_term",
             help: "Fencing term this primary ships under",
             read: |s| Some(Gauge(s.repl.as_ref()?.term as f64)) },
    Family { name: "quts_fenced_frames_total",
             help: "Stale-term sessions, frames and acks fenced by the listener",
             read: |s| Some(Counter(s.repl.as_ref()?.ship.as_ref()?.fenced)) },
    Family { name: "quts_repl_connected",
             help: "Whether the replica's shipping connection is up",
             read: |s| Some(Gauges("replica", by_replica(s, |_, p| u8::from(p.connected).into())?)) },
    Family { name: "quts_repl_applied_lsn",
             help: "Highest LSN the replica acknowledged applying",
             read: |s| Some(Gauges("replica", by_replica(s, |_, p| p.applied_lsn as f64)?)) },
    Family { name: "quts_repl_durable_lsn",
             help: "Highest LSN the replica acknowledged as fsync'd",
             read: |s| Some(Gauges("replica", by_replica(s, |_, p| p.durable_lsn as f64)?)) },
    Family { name: "quts_repl_lag",
             help: "Primary WAL LSNs the replica has not yet applied",
             read: |s| Some(Gauges("replica", by_replica(s, |lag, _| lag as f64)?)) },
    Family { name: "quts_repl_frames_shipped_total",
             help: "WAL frames shipped to the replica (retransmissions included)",
             read: |s| Some(Counters("replica", by_replica(s, |_, p| p.frames_shipped)?)) },
    Family { name: "quts_repl_bootstraps_total",
             help: "Snapshot bootstraps sent to the replica",
             read: |s| Some(Counters("replica", by_replica(s, |_, p| p.bootstraps)?)) },
    Family { name: "quts_repl_connections_total",
             help: "Shipping sessions the replica has established",
             read: |s| Some(Counters("replica", by_replica(s, |_, p| p.connections)?)) },
    Family { name: "quts_repl_lag_frames",
             help: "Unapplied WAL frames per replica, sampled at each heartbeat",
             read: |s| Some(Histogram(&s.repl.as_ref()?.ship.as_ref()?.lag_frames)) },
    Family { name: "quts_repl_apply_lag_us",
             help: "Ship-to-apply-ack latency of shipped WAL frames",
             read: |s| Some(Histogram(&s.repl.as_ref()?.ship.as_ref()?.apply_lag_us)) },
    Family { name: "quts_failovers_total",
             help: "Failovers by outcome: completed promotions, and failed ones (rolled back, or rolled forward without a listener)",
             read: |s| s.repl.as_ref().map(|c| Counters("outcome", vec![
                 ("completed".into(), c.failovers),
                 ("failed".into(), c.failed_failovers),
             ])) },
    Family { name: "quts_failover_lost_replicas_total",
             help: "Replicas dropped from a shard's fleet across failovers",
             read: |s| Some(Counter(s.repl.as_ref()?.lost_replicas)) },
    // Sharding: present at every shard count.
    Family { name: "quts_shards",
             help: "Number of QUTS shards this server partitions the store over",
             read: |s| Some(Gauge(s.shards.len() as f64)) },
    Family { name: "quts_shard_up",
             help: "Whether the shard's scheduler is running (0 = poisoned or restarting)",
             read: |s| Some(Gauges("shard", by_shard(&s.up, |&up| u8::from(up).into()))) },
    Family { name: "quts_shard_rho",
             help: "Per-shard query-class bias (rho)",
             read: |s| Some(Gauges("shard", by_shard(&s.shards, |k| k.rho))) },
    Family { name: "quts_shard_queries_submitted_total",
             help: "Queries admitted, by owning shard",
             read: |s| Some(Counters("shard", by_shard(&s.shards, |k| k.aggregates.submitted))) },
    Family { name: "quts_shard_queries_committed_total",
             help: "Queries answered within their lifetime, by owning shard",
             read: |s| Some(Counters("shard", by_shard(&s.shards, |k| k.aggregates.committed))) },
    Family { name: "quts_shard_updates_applied_total",
             help: "Updates whose value reached the shard's store",
             read: |s| Some(Counters("shard", by_shard(&s.shards, |k| k.updates_applied))) },
    Family { name: "quts_shard_pending_queries",
             help: "Admitted queries not yet executed, by shard",
             read: |s| Some(Gauges("shard", by_shard(&s.shards, |k| k.pending_queries as f64))) },
    Family { name: "quts_shard_pending_updates",
             help: "Admitted updates not yet applied, by shard",
             read: |s| Some(Gauges("shard", by_shard(&s.shards, |k| k.pending_updates as f64))) },
    Family { name: "quts_shard_restarts_total",
             help: "Per-shard scheduler restarts after panics",
             read: |s| Some(Counters("shard", by_shard(&s.shards, |k| k.engine_restarts))) },
    Family { name: "quts_shard_cross_locks_total",
             help: "Cross-shard 2PL grants served, by granting shard",
             read: |s| Some(Counters("shard", by_shard(&s.shards, |k| k.cross_shard_locks))) },
    Family { name: "quts_shard_cross_lock_timeouts_total",
             help: "Cross-shard 2PL freezes that ended at the deadline because no release came, by shard",
             read: |s| {
                 let series = by_shard(&s.shards, |k| k.cross_shard_lock_timeouts);
                 Some(Counters("shard", series))
             } },
    Family { name: "quts_cross_shard_txns_total",
             help: "Spanning aggregates through the 2PL coordinator, by outcome",
             read: |s| Some(Counters("outcome", vec![
                 ("committed".into(), s.cross.committed),
                 ("expired".into(), s.cross.expired),
                 ("failed".into(), s.cross.failed),
             ])) },
    // Routing: only on a server whose shards route reads.
    Family { name: "quts_routed_reads_total",
             help: "Reads answered, by the node class that served them",
             read: |s| s.repl.as_ref()?.router.as_ref().map(|r| Counters("target", vec![
                 ("replica".into(), r.routed_replica),
                 ("primary".into(), r.routed_primary),
             ])) },
    Family { name: "quts_reads_shed_busy_total",
             help: "Reads shed with ERR busy (no replica qualified, primary full)",
             read: |s| Some(Counter(s.repl.as_ref()?.router.as_ref()?.shed_busy)) },
    Family { name: "quts_router_demotions_total",
             help: "Replica demotions for excessive lag",
             read: |s| Some(Counter(s.repl.as_ref()?.router.as_ref()?.demotions)) },
    Family { name: "quts_router_rejoins_total",
             help: "Demoted replicas readmitted after catching up",
             read: |s| Some(Counter(s.repl.as_ref()?.router.as_ref()?.rejoins)) },
    Family { name: "quts_router_qod_violations_total",
             help: "Replica reads whose dispatch bound broke the contract (must stay 0)",
             read: |s| Some(Counter(s.repl.as_ref()?.router.as_ref()?.qod_violations)) },
    Family { name: "quts_router_repoints_total",
             help: "Primary swaps performed at failover",
             read: |s| Some(Counter(s.repl.as_ref()?.router.as_ref()?.repoints)) },
];

#[cfg(test)]
mod tests {
    use super::*;
    use quts_metrics::LogHistogram;
    use std::path::Path;

    /// Hands out 1, 2, 3, … so every field a reader touches holds a
    /// value no other field holds, and a reader wired to the wrong field
    /// changes the document.
    struct Distinct(u64);

    impl Distinct {
        fn next(&mut self) -> u64 {
            self.0 += 1;
            self.0
        }

        /// A non-integral value, to pin the formatting of floats.
        fn float(&mut self) -> f64 {
            self.next() as f64 + 0.25
        }

        /// Three samples spread over several buckets.
        fn histogram(&mut self) -> LogHistogram {
            let n = self.next();
            let mut h = LogHistogram::new();
            for v in [n, n * 97, n * 10_007] {
                h.record(v);
            }
            h
        }

        fn live_stats(&mut self) -> LiveStats {
            let mut s = LiveStats::default();
            s.aggregates.submitted = self.next();
            s.aggregates.committed = self.next();
            s.aggregates.qos_gained = self.float();
            s.aggregates.qod_gained = self.float();
            s.aggregates.qos_max = self.float();
            s.aggregates.qod_max = self.float();
            s.rho = self.next() as f64 / 128.0;
            s.adaptations = self.next();
            s.rho_history_truncated = self.next();
            s.pending_queries = self.next();
            s.pending_updates = self.next();
            s.updates_applied = self.next();
            s.updates_invalidated = self.next();
            s.queue_full_rejections = self.next();
            s.shed_expired = self.next();
            s.updates_dropped_overload = self.next();
            s.shed_on_restart_queries = self.next();
            s.shed_on_restart_updates = self.next();
            s.engine_restarts = self.next();
            s.wal_appended = self.next();
            s.wal_io_errors = self.next();
            s.snapshots_written = self.next();
            s.snapshot_last_lsn = self.next();
            s.recovery_replayed_updates = self.next();
            s.wal_truncated_bytes = self.next();
            s.wal_fsyncs = self.next();
            s.group_commits = self.next();
            s.group_buffered = self.next();
            s.group_commit_batch = self.histogram();
            s.group_commit_wait_us = self.histogram();
            s.spans.response_us = self.histogram();
            s.spans.queue_wait_us = self.histogram();
            s.spans.service_us = self.histogram();
            s.spans.staleness = self.histogram();
            s.spans.update_delay_us = self.histogram();
            // Above every replica's applied LSN, so each lag is positive.
            s.wal_last_lsn = 1_000 + self.next();
            s.cross_shard_locks = self.next();
            s.cross_shard_lock_timeouts = self.next();
            s
        }

        fn peer(&mut self, name: &str, connected: bool) -> ReplicaPeerStats {
            ReplicaPeerStats {
                name: name.into(),
                applied_lsn: self.next(),
                durable_lsn: self.next(),
                connected,
                frames_shipped: self.next(),
                bootstraps: self.next(),
                connections: self.next(),
            }
        }

        /// A cluster shipping to and routing over two replicas; `scope`
        /// prefixes their names as a sharded server does. Fields are
        /// drawn in the order they are written.
        fn cluster(&mut self, scope: &str) -> ClusterStats {
            let term = self.next();
            ClusterStats {
                term,
                ship: Some(ShipTotals {
                    term,
                    fenced: self.next(),
                    lag_frames: self.histogram(),
                    apply_lag_us: self.histogram(),
                }),
                peers: vec![
                    self.peer(&format!("{scope}r1"), true),
                    self.peer(&format!("{scope}r2"), false),
                ],
                router: Some(RouterStats {
                    routed_replica: self.next(),
                    routed_primary: self.next(),
                    shed_busy: self.next(),
                    demotions: self.next(),
                    rejoins: self.next(),
                    qod_violations: self.next(),
                    repoints: self.next(),
                }),
                pool: 2,
                failovers: self.next(),
                failed_failovers: self.next(),
                lost_replicas: self.next(),
            }
        }

        /// A server over `up.len()` shards, each a replicated cluster
        /// when `replicated`.
        fn snapshot(&mut self, up: Vec<bool>, replicated: bool) -> Snapshot {
            let mut shards: Vec<LiveStats> = up.iter().map(|_| self.live_stats()).collect();
            let merged = self.live_stats();
            // The merge's WAL watermark is the highest shard's; the
            // last shard holds it, and every other shard a lower one.
            if let Some(last) = shards.last_mut() {
                last.wal_last_lsn = merged.wal_last_lsn;
            }
            let cross = CrossShardStats {
                submitted: self.next(),
                committed: self.next(),
                expired: self.next(),
                failed: self.next(),
            };
            let clusters: Vec<ClusterStats> = (0..up.len())
                .map(|k| match (replicated, up.len()) {
                    (false, _) => ClusterStats::default(),
                    (true, 1) => self.cluster(""),
                    (true, _) => self.cluster(&format!("shard{k}-")),
                })
                .collect();
            Snapshot {
                shards,
                up,
                merged,
                cross,
                repl: merge_clusters(&clusters),
                clusters,
            }
        }
    }

    /// Compares each verb's response with its golden file,
    /// `golden/<server>.<verb>` (the response plus the newline the
    /// connection adds). A mismatch writes the response to the temp
    /// directory, to copy over the golden file when the change is meant.
    fn assert_golden(server: &str, s: &Snapshot) {
        let responses = [
            ("metrics", metrics(s)),
            ("stats", stats(s)),
            ("repl", repl(s)),
        ];
        let mut differ = Vec::new();
        for (verb, response) in responses {
            let file = format!("{server}.{verb}");
            let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("golden")
                .join(&file);
            let want = std::fs::read_to_string(&golden).unwrap_or_default();
            let got = response + "\n";
            if got != want {
                let out = std::env::temp_dir().join(format!("quts-golden-{file}"));
                std::fs::write(&out, &got).expect("write the response");
                differ.push(format!(
                    "{} (response in {})",
                    golden.display(),
                    out.display()
                ));
            }
        }
        assert!(differ.is_empty(), "golden files differ: {differ:#?}");
    }

    #[test]
    fn one_shard_server_matches_its_golden_files() {
        assert_golden("one_shard", &Distinct(0).snapshot(vec![true], false));
    }

    #[test]
    fn two_shard_server_matches_its_golden_files() {
        assert_golden(
            "two_shards",
            &Distinct(0).snapshot(vec![true, false], false),
        );
    }

    #[test]
    fn replicated_server_matches_its_golden_files() {
        assert_golden("replicated", &Distinct(0).snapshot(vec![true], true));
    }

    /// Two replicated shards whose WALs stand at different LSNs: each
    /// replica's lag is against its own shard, each shard has its own
    /// `role` line, and the unlabeled series are the merge.
    #[test]
    fn replicated_two_shard_server_matches_its_golden_files() {
        assert_golden(
            "replicated_two_shards",
            &Distinct(0).snapshot(vec![true, true], true),
        );
    }
}
