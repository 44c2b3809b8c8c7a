//! Durability wiring: the engine's WAL writer + snapshot cadence.
//!
//! [`DurabilityConfig`] is the user-facing knob set on
//! [`EngineConfig`](crate::EngineConfig); [`Durable`] is the engine-side
//! state machine the scheduler drives: every ingested update is appended
//! to the WAL *before* it is enqueued (so an update the engine has
//! accepted is an update recovery can reproduce), and every
//! `snapshot_every` appends the scheduler publishes a fresh snapshot and
//! rotates the log so covered segments can be collected.
//!
//! There is one commit path. The scheduler appends each member of a
//! commit group with `Durable::append` (no sync) and closes the group
//! with `Durable::commit_group`, where the fsync policy is applied
//! once. With [`GroupCommitConfig`] a group is up to `max_batch`
//! updates; without it every update is a group of one, so the policy
//! decides per update — the same calls, the same bytes, the same sync
//! points a per-update WAL always had.
//!
//! A replica writes its copy through the same [`Durable`], appending each
//! shipped record unchanged at its LSN: one writer, one cadence, for the
//! primary and the replica alike. A `Durable` holds its directory's
//! [`DirLock`] as long as its WAL is open (a replica holds it from its
//! start, across bootstraps), so a second writer — another engine or
//! replica started over the same directory — is refused with
//! `WouldBlock` before it touches a file.
//!
//! WAL IO failures are **fail-stop**: an append or fsync error means the
//! durability promise can no longer be kept, so the scheduler panics and
//! the supervisor rebuilds the whole state from `snapshot + WAL tail` —
//! the same path a real crash takes (the PostgreSQL PANIC-on-fsync
//! lesson: carrying on after a failed sync silently voids the
//! guarantee).

use crate::fault::{FaultPlan, FaultState, WalFault};
use quts_db::snapshot::{self, DirLock, Recovered};
use quts_db::wal::{self, FsyncPolicy, Wal};
use quts_db::{Store, Trade};
use std::io;
use std::path::PathBuf;

/// Group-commit knobs: how long the committer may hold a group open
/// before closing it with one fsync.
///
/// With group commit enabled, updates ingested by the scheduler gather
/// in a commit buffer; the group closes — one batched WAL append, one
/// covering fsync, then every parked ticket released at its durable
/// LSN — when it reaches `max_batch` records or its oldest entry has
/// waited `max_delay_us`. Disabled (the default), every update is its
/// own group and the fsync policy decides per update; the WAL bytes are
/// identical either way, only the sync points move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Close the group at this many buffered updates.
    pub max_batch: usize,
    /// Close the group once its oldest update has waited this long, in
    /// microseconds — the bound on added ack latency.
    pub max_delay_us: u64,
}

impl Default for GroupCommitConfig {
    /// 256-record groups, 200 µs max hold — deep enough to amortize an
    /// fsync across a burst, short enough to stay invisible next to a
    /// storage sync (~1 ms on common SSDs).
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 256,
            max_delay_us: 200,
        }
    }
}

impl GroupCommitConfig {
    /// Builder: sets the batch-size bound.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        self.max_batch = max_batch;
        self
    }

    /// Builder: sets the hold-time bound in microseconds.
    pub fn with_max_delay_us(mut self, max_delay_us: u64) -> Self {
        self.max_delay_us = max_delay_us;
        self
    }
}

/// Durability knobs for the live engine.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments, snapshots and the manifest.
    pub dir: PathBuf,
    /// When appended updates are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Publish a snapshot (and rotate the WAL) every this many appends.
    pub snapshot_every: u64,
    /// Rotate to a new WAL segment past this size.
    pub segment_bytes: u64,
    /// Group-commit knobs; `None` (default) makes each update its own
    /// group, so the fsync policy decides per update.
    pub group_commit: Option<GroupCommitConfig>,
    /// Segment-name tag (`wal-<tag>-<lsn>.log`); a sharded engine sets
    /// `shard<k>` so every shard's WAL stream is attributable on disk.
    pub wal_tag: Option<String>,
    /// Added blocking latency per WAL sync, modeling a slower flush
    /// device (the writer sleeps — the CPU stays free, like real flush
    /// IO). `None` (default) syncs at native device speed. A bench/test
    /// knob: it changes timing only, never durability semantics.
    pub flush_delay: Option<std::time::Duration>,
}

impl DurabilityConfig {
    /// Sensible defaults over `dir`: `fsync = EveryN(64)` (bounded-loss,
    /// near-`Off` throughput), a snapshot every 4096 appends, 8 MiB
    /// segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(64),
            snapshot_every: 4096,
            segment_bytes: 8 << 20,
            group_commit: None,
            wal_tag: None,
            flush_delay: None,
        }
    }

    /// Builder: adds blocking per-sync latency modeling a slower flush
    /// device (see the `flush_delay` field).
    pub fn with_flush_delay(mut self, delay: std::time::Duration) -> Self {
        self.flush_delay = Some(delay);
        self
    }

    /// Builder: sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Builder: sets the snapshot cadence (in WAL appends).
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        assert!(every > 0, "snapshot cadence must be positive");
        self.snapshot_every = every;
        self
    }

    /// Builder: sets the WAL segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "segment size must be positive");
        self.segment_bytes = bytes;
        self
    }

    /// Builder: enables the group-commit pipeline with `gc`'s knobs.
    pub fn with_group_commit(mut self, gc: GroupCommitConfig) -> Self {
        self.group_commit = Some(gc);
        self
    }

    /// Builder: tags WAL segment names (`wal-<tag>-<lsn>.log`).
    pub fn with_wal_tag(mut self, tag: impl Into<String>) -> Self {
        self.wal_tag = Some(tag.into());
        self
    }
}

/// The engine's durable state: the open WAL plus snapshot bookkeeping.
#[derive(Debug)]
pub(crate) struct Durable {
    wal: Wal,
    cfg: DurabilityConfig,
    /// Appends since the last published snapshot; seeds the cadence
    /// after recovery too (a long replay earns a prompt re-snapshot).
    appends_since_snapshot: u64,
    /// An injected `FsyncFail` fired during an append: the record itself
    /// landed in the stream, but the group's covering sync must fail.
    /// Deferring the error to [`Durable::commit_group`] models a real
    /// group-fsync failure — every member appended, none durable, none
    /// ackable.
    pending_fsync_failure: bool,
    /// The directory's one-writer lock, released with the WAL unless
    /// its replica holds a clone.
    _lock: DirLock,
}

impl Durable {
    /// The one durable start: locks `cfg.dir`, opens it through
    /// [`snapshot::open`] — initialised from `store` when it holds no
    /// MANIFEST, recovered (`store` naming its universe) when it does —
    /// and opens the WAL at the LSN that follows.
    pub(crate) fn start(cfg: DurabilityConfig, store: Store) -> io::Result<(Durable, Recovered)> {
        let lock = snapshot::lock(&cfg.dir)?;
        let rec = snapshot::open(&cfg.dir, store)?;
        Ok((Durable::open(lock, cfg, rec.next_lsn, rec.replayed)?, rec))
    }

    /// Locks and recovers the initialised directory `cfg.dir` (the
    /// supervisor's restart, a promotion, a rollback) and reopens the WAL
    /// at the post-replay LSN (fresh segment; any valid prior records
    /// were already replayed, so truncate-create loses nothing).
    pub(crate) fn recover(cfg: DurabilityConfig) -> io::Result<(Durable, Recovered)> {
        let lock = snapshot::lock(&cfg.dir)?;
        let rec = snapshot::recover(&cfg.dir)?;
        Ok((Durable::open(lock, cfg, rec.next_lsn, rec.replayed)?, rec))
    }

    /// Opens a fresh WAL segment at `next_lsn` under `cfg`'s knobs, over
    /// a directory quts-db has already recovered or reset and `lock`
    /// holds; the cadence starts at `appends_since_snapshot`.
    pub(crate) fn open(
        lock: DirLock,
        cfg: DurabilityConfig,
        next_lsn: u64,
        appends_since_snapshot: u64,
    ) -> io::Result<Durable> {
        let mut wal = Wal::create_tagged(
            &cfg.dir,
            cfg.wal_tag.as_deref(),
            cfg.fsync,
            cfg.segment_bytes,
            next_lsn,
        )?;
        wal.set_flush_delay(cfg.flush_delay);
        Ok(Durable {
            wal,
            cfg,
            appends_since_snapshot,
            pending_fsync_failure: false,
            _lock: lock,
        })
    }

    /// The configuration this durable state was opened with; the WAL
    /// and the directory lock close with the rest of it.
    pub(crate) fn into_config(self) -> DurabilityConfig {
        self.cfg
    }

    /// The LSN the next append will be assigned. Trace events for an
    /// update are stamped with this *before* the append syscall, so the
    /// ingest record is in the ring before the WAL shipper's tailer can
    /// possibly see the frame on disk.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Appends one update to its commit group's WAL records **without**
    /// applying the fsync policy: the record is not durable until
    /// [`Durable::commit_group`] (or a forced [`Durable::sync`]) returns.
    /// Injected IO faults fire per record; any destructive one (`Fail`,
    /// `Enospc`, `Torn`, `FsyncFail`) surfaces as `Err` — here or at the
    /// group's sync point — so the caller poisons the *whole* group: a
    /// group with a failed member must never ack any member.
    pub(crate) fn append(
        &mut self,
        trade: &Trade,
        plan: &FaultPlan,
        faults: &FaultState,
    ) -> io::Result<u64> {
        let payload = wal::encode_trade(trade);
        match faults.wal_fault(plan, faults.next_wal_append()) {
            Some(WalFault::Fail) => {
                return Err(io::Error::other("fault injection: WAL append failed"));
            }
            Some(WalFault::Enospc) => {
                // Disk full before a byte lands: the update cannot be
                // made durable, so it must never be acked.
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "fault injection: disk full (ENOSPC)",
                ));
            }
            Some(WalFault::Torn) => {
                // The frame header lands, the payload does not — the
                // exact residue of a crash mid-write.
                self.wal.append_torn(&payload, wal::FRAME_HEADER)?;
                return Err(io::Error::other("fault injection: torn WAL append"));
            }
            Some(WalFault::Corrupt) => {
                // Silent media corruption: the engine believes the
                // append succeeded; only replay's CRC will know.
                let lsn = self.wal.append_corrupted(&payload)?;
                self.appends_since_snapshot += 1;
                return Ok(lsn);
            }
            // The record lands in the stream (replay may resurrect it)
            // but the group's covering sync will fail: the error waits
            // for [`Durable::commit_group`], so the whole group poisons
            // at the sync point, after every member has been appended.
            Some(WalFault::FsyncFail) => self.pending_fsync_failure = true,
            None => {}
        }
        let lsn = self.wal.append_deferred(&payload)?;
        self.appends_since_snapshot += 1;
        Ok(lsn)
    }

    /// Appends a shipped record's payload unchanged at the LSN its
    /// primary gave it, so a replica's log is a byte-identical prefix of
    /// the primary's. No fault hook and no sync: the replica closes each
    /// received group with [`Durable::sync`] before it acks.
    pub(crate) fn append_shipped(&mut self, lsn: u64, payload: &[u8]) -> io::Result<()> {
        let at = self.wal.append_deferred(payload)?;
        debug_assert_eq!(at, lsn, "replica WAL diverged from stream LSNs");
        self.appends_since_snapshot += 1;
        Ok(())
    }

    /// Closes the current group: `force` syncs unconditionally (a parked
    /// ticket is waiting for durability), otherwise the configured fsync
    /// policy decides once for the whole group. An `Err` means the
    /// group's durability is unknown — fail-stop, ack nothing.
    pub(crate) fn commit_group(&mut self, force: bool) -> io::Result<()> {
        if self.pending_fsync_failure {
            // The sync covering this group fails: its records sit in
            // the stream (replay decides their fate) but durability was
            // never established — ack nothing.
            self.pending_fsync_failure = false;
            return Err(io::Error::other("fault injection: fsync failed"));
        }
        if force {
            self.wal.sync()
        } else {
            self.wal.commit_group()
        }
    }

    /// Number of fsyncs the WAL writer has issued (this incarnation).
    pub(crate) fn fsync_count(&self) -> u64 {
        self.wal.fsync_count()
    }

    /// Whether the snapshot cadence is due.
    pub(crate) fn should_snapshot(&self) -> bool {
        self.appends_since_snapshot >= self.cfg.snapshot_every
    }

    /// Publishes a snapshot covering everything appended so far and
    /// rotates the WAL first, so every pre-rotation segment is covered
    /// and collectable. Returns the snapshot's LSN.
    pub(crate) fn publish_snapshot(
        &mut self,
        store: &Store,
        missed: &[u64],
        pending: &[Trade],
    ) -> io::Result<u64> {
        let last_lsn = self.wal.next_lsn() - 1;
        self.wal.rotate()?;
        snapshot::publish(&self.cfg.dir, store, missed, pending, last_lsn)?;
        self.appends_since_snapshot = 0;
        Ok(last_lsn)
    }

    /// Forces every appended record to stable storage (shutdown path,
    /// and a replica's sync before each ack).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }
}
