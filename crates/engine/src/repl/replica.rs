//! The replica process: applies the shipped WAL stream to a local
//! store through register-table semantics, keeps its **own** durable
//! copy through the engine's [`Durable`] — the primary's writer and
//! cadence, so a promoted replica recovers like a primary — and reports
//! `applied_lsn` / `durable_lsn` back to the shipper. What its directory
//! holds is quts-db's to decide: [`snapshot::recover_applied`] at start,
//! [`snapshot::reset_dir`] at a bootstrap.
//!
//! The apply loop is strict about ordering: a frame at or below
//! `applied_lsn` is a duplicate (link retransmission) and is skipped; a
//! frame more than one ahead is a gap and forces a reconnect that
//! resumes from `applied_lsn` — so the replica WAL is always a
//! byte-identical prefix of the primary's (same LSNs, same payloads,
//! same CRCs).
//!
//! Reconnection uses the shared [`Backoff`] helper: capped exponential
//! delay with jitter, reset after any successful session. The thread
//! parks out the delay, so a stop unparks it instead of waiting. Only
//! the link reconnects: an error writing the replica's own copy is
//! fail-stop, as on the primary (see `Applier::fail_stop`).
//!
//! **Pacing.** The stream paces a session; nothing here runs on a
//! timer. Past the handshake, the session blocks reading through one
//! buffer. A received group closes — one fsync, one ack — at
//! `ack_every` frames, at a heartbeat, or as soon as everything received
//! has been read (the primary's commit-on-idle). A stop shuts the live
//! socket's read half, so a blocked read returns at once.
//!
//! **Progress.** The replica thread is the only writer of its progress.
//! It keeps its watermarks and term in locals and publishes every change
//! to one [`ReplicaStats`] under one lock (never held across IO or the
//! store lock), so a snapshot is never torn: `durable_lsn ≤ applied_lsn`
//! in every copy a reader takes.
//!
//! **Term fencing.** The replica persists the highest fencing term it
//! has followed in its own MANIFEST and sends it in every hello. A
//! primary announcing a *lower* term is a zombie: the session is
//! refused before any preamble is processed, the refusal is counted,
//! and **no local state changes** — not the store, not the WAL, not
//! the term. A higher announced term is adopted (persisted before the
//! first ack under it), and every shipped frame must carry the session
//! term or the link is dropped on the spot.

use crate::durability::{DurabilityConfig, Durable};
use crate::repl::wire::{self, Ack, FromPrimary};
use crate::retry::Backoff;
use parking_lot::Mutex;
use quts_db::snapshot::{self, DirLock};
use quts_db::wal::{self, Dir, Frame};
use quts_db::{QueryOp, QueryResult, Store};
use quts_metrics::{update_trace_id, TraceCtx, TraceEvent, TraceRecord, TraceRing, SPAN_APPLY};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Knobs for a [`Replica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Name reported in the handshake (registry key on the primary).
    pub name: String,
    /// Directory for the replica's own WAL + snapshots.
    pub dir: PathBuf,
    /// Sync + ack every this many applied frames.
    pub ack_every: u64,
    /// Reconnect backoff floor.
    pub backoff_base: Duration,
    /// Reconnect backoff cap.
    pub backoff_cap: Duration,
    /// Capacity of the replica's own trace ring. `Some(n)` records a
    /// `replica_apply` event per applied frame (trace ids recomputed
    /// from the primary's announced seed); `None` traces nothing.
    pub trace_capacity: Option<usize>,
}

impl ReplicaConfig {
    /// Defaults for `name` over `dir`: sync + ack every 32 frames,
    /// 2 ms → 200 ms backoff, no tracing. The copy in `dir` is written
    /// under `DurabilityConfig::new(dir)`'s defaults: 8 MiB segments and
    /// a local snapshot every 4096 appended frames.
    ///
    /// # Panics
    /// Panics unless `name` is 1 to 256 bytes of `[A-Za-z0-9._-]`, the
    /// only names a primary accepts.
    pub fn new(name: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        let name = name.into();
        assert!(wire::valid_name(&name), "invalid replica name {name:?}");
        ReplicaConfig {
            name,
            dir: dir.into(),
            ack_every: 32,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(200),
            trace_capacity: None,
        }
    }

    /// Builder: sets the sync + ack cadence (applied frames).
    pub fn with_ack_every(mut self, every: u64) -> Self {
        assert!(every > 0, "ack cadence must be positive");
        self.ack_every = every;
        self
    }

    /// Builder: sets the reconnect backoff floor and cap.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Builder: enables apply tracing with a ring of `capacity` records.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        self.trace_capacity = Some(capacity);
        self
    }
}

/// A point-in-time snapshot of a replica's progress.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica name.
    pub name: String,
    /// Whether a store has been installed (bootstrap or local recovery)
    /// — reads are only servable once this is true.
    pub ready: bool,
    /// Whether the shipping connection is currently up.
    pub connected: bool,
    /// Highest LSN applied to the store.
    pub applied_lsn: u64,
    /// Highest LSN fsync'd to the replica's own WAL.
    pub durable_lsn: u64,
    /// Frames applied (duplicates excluded).
    pub frames_applied: u64,
    /// Duplicate frames skipped (link retransmission / overlap).
    pub frames_duplicate: u64,
    /// Out-of-order gaps that forced a reconnect.
    pub gaps: u64,
    /// Shipping sessions established.
    pub connections: u64,
    /// Snapshot bootstraps received from the primary.
    pub bootstraps: u64,
    /// Local snapshots published.
    pub snapshots_written: u64,
    /// The highest fencing term this replica has followed (persisted in
    /// its MANIFEST).
    pub term: u64,
    /// Fencing events: sessions refused because the primary announced a
    /// stale term, and frames rejected for a term mismatch.
    pub fenced: u64,
    /// Microseconds since the last primary heartbeat (or frame) was
    /// heard; `u64::MAX` until the first one. The failure detector's
    /// raw signal.
    pub heartbeat_age_us: u64,
}

impl ReplicaStats {
    /// Replication lag against a primary watermark (its `wal_last_lsn`).
    pub(crate) fn lag_behind(&self, primary_last_lsn: u64) -> u64 {
        primary_last_lsn.saturating_sub(self.applied_lsn)
    }

    /// Sessions beyond the first — how many times the link was re-made.
    pub fn reconnects(&self) -> u64 {
        self.connections.saturating_sub(1)
    }
}

/// What the replica thread publishes, under one lock: an applied frame
/// updates its counters, its beat and its ring in one acquisition.
#[derive(Debug)]
struct Progress {
    /// Every field but `heartbeat_age_us`, which a copy computes from
    /// `last_beat`.
    stats: ReplicaStats,
    /// When a heartbeat or frame was last heard; `None` until the first.
    last_beat: Option<Instant>,
    /// The replica's own decision ring (`replica_apply` events).
    ring: Option<TraceRing>,
}

impl Progress {
    /// The published counters, with the heartbeat age as of now.
    fn snapshot(&self) -> ReplicaStats {
        ReplicaStats {
            heartbeat_age_us: self
                .last_beat
                .map_or(u64::MAX, |at| at.elapsed().as_micros() as u64),
            ..self.stats.clone()
        }
    }
}

#[derive(Debug)]
struct SharedState {
    name: String,
    dir: PathBuf,
    /// The replica's store, `None` until bootstrap or local recovery.
    /// Reads and applies both take this lock, so a read never observes
    /// a half-applied record. Never held together with `progress`.
    store: Mutex<Option<Store>>,
    /// Written only by the replica thread, and never across IO.
    progress: Mutex<Progress>,
    /// The live session's socket, so a stop can cut its blocked read.
    link: Mutex<Option<Arc<TcpStream>>>,
    shutdown: AtomicBool,
    graceful: AtomicBool,
}

impl SharedState {
    /// Updates the published progress in place. The guard lives only
    /// for `f`, so the lock is never held across IO.
    fn publish(&self, f: impl FnOnce(&mut Progress)) {
        f(&mut self.progress.lock());
    }
}

/// A cloneable read/stats handle to a running (or stopped) replica.
#[derive(Debug, Clone)]
pub struct ReplicaHandle {
    shared: Arc<SharedState>,
}

impl ReplicaHandle {
    /// The replica's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Snapshots the replica's progress counters.
    pub fn stats(&self) -> ReplicaStats {
        self.shared.progress.lock().snapshot()
    }

    /// Exports the replica's trace ring as JSONL (oldest record first).
    /// `None` when the replica was started without tracing.
    pub fn trace_to_jsonl(&self) -> Option<String> {
        let progress = self.shared.progress.lock();
        progress.ring.as_ref().map(TraceRing::to_jsonl)
    }

    /// Snapshots the replica's trace ring as `(records, dropped)`.
    /// `None` when the replica was started without tracing.
    pub fn trace_records(&self) -> Option<(Vec<TraceRecord>, u64)> {
        let progress = self.shared.progress.lock();
        let ring = progress.ring.as_ref()?;
        Some((ring.iter_ordered().cloned().collect(), ring.dropped()))
    }

    /// Serves a read from the replica store. `None` until the replica
    /// has a store (bootstrap or local recovery).
    pub fn execute(&self, op: &QueryOp) -> Option<QueryResult> {
        let store = self.shared.store.lock();
        Some(op.execute(store.as_ref()?))
    }
}

/// A replica process: one thread that bootstraps, tails the primary's
/// WAL stream, and maintains its own durable copy.
#[derive(Debug)]
pub struct Replica {
    handle: ReplicaHandle,
    thread: Option<JoinHandle<()>>,
}

impl Replica {
    /// Starts a replica of the primary shipping at `primary`. If `dir`
    /// holds state from a previous run, the replica recovers from it
    /// first and resumes the stream from its recovered `applied_lsn`.
    ///
    /// # Errors
    /// [`snapshot::lock`]'s refusal while another engine or replica
    /// writes `dir`; IO errors from locking it or spawning the
    /// replica's thread.
    pub fn start(primary: SocketAddr, config: ReplicaConfig) -> io::Result<Replica> {
        Replica::start_in(primary, Dir::from(&config.dir), config)
    }

    /// [`Replica::start`], writing `config.dir` through `dir`'s seam.
    fn start_in(primary: SocketAddr, dir: Dir, config: ReplicaConfig) -> io::Result<Replica> {
        let lock = snapshot::lock(dir)?;
        let term = snapshot::manifest_term(&config.dir);
        let shared = Arc::new(SharedState {
            name: config.name.clone(),
            dir: config.dir.clone(),
            store: Mutex::new(None),
            progress: Mutex::new(Progress {
                stats: ReplicaStats {
                    name: config.name.clone(),
                    term,
                    heartbeat_age_us: u64::MAX,
                    ..ReplicaStats::default()
                },
                last_beat: None,
                ring: config.trace_capacity.map(TraceRing::new),
            }),
            link: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            graceful: AtomicBool::new(false),
        });
        let applier = Applier {
            shared: Arc::clone(&shared),
            log: None,
            lock,
            applied: 0,
            durable: 0,
            term,
        };
        let thread = thread::Builder::new()
            .name(format!("quts-replica-{}", config.name))
            .spawn(move || applier.run(primary, &config))?;
        Ok(Replica {
            handle: ReplicaHandle { shared },
            thread: Some(thread),
        })
    }

    /// A cloneable read/stats handle.
    pub fn handle(&self) -> ReplicaHandle {
        self.handle.clone()
    }

    /// The replica's durability directory.
    pub fn dir(&self) -> PathBuf {
        self.handle.shared.dir.clone()
    }

    /// Snapshots the replica's progress counters.
    pub fn stats(&self) -> ReplicaStats {
        self.handle.stats()
    }

    /// Graceful stop: the apply loop exits, the WAL tail is fsync'd and
    /// a final snapshot is published — the durable seal promotion
    /// requires. Returns the final stats.
    pub fn shutdown(mut self) -> ReplicaStats {
        self.handle.shared.graceful.store(true, Ordering::Release);
        self.stop();
        self.stats()
    }

    /// Crash stop: the apply loop exits without the final sync or
    /// snapshot, modelling a process kill (writes already handed to the
    /// OS survive; everything else is for recovery to sort out).
    pub fn kill(mut self) -> ReplicaStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        let shared = &self.handle.shared;
        shared.shutdown.store(true, Ordering::Release);
        // A blocked session read returns at once. The write half stays
        // open for the final ack. A session that stores its socket after
        // this reads the flag stored above.
        if let Some(link) = shared.link.lock().as_ref() {
            let _ = link.shutdown(Shutdown::Read);
        }
        if let Some(h) = self.thread.take() {
            // Cuts a reconnect backoff short; the thread reads the flag
            // stored above as soon as it wakes.
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The replica thread's own state: its log writer, and the watermarks
/// and term it alone writes. Each change is published to
/// `shared.progress`.
struct Applier {
    shared: Arc<SharedState>,
    /// `None` until local recovery or the first bootstrap. Its snapshot
    /// cadence lives as long as it does, across sessions.
    log: Option<Durable>,
    /// The directory's lock, taken at start and shared with each `log`.
    lock: DirLock,
    applied: u64,
    durable: u64,
    term: u64,
}

impl Applier {
    fn run(mut self, primary: SocketAddr, config: &ReplicaConfig) {
        // Local recovery: a restarted replica resumes from its own state
        // instead of re-bootstrapping. It serves that state only once
        // its WAL is open.
        if let Ok(Some(rec)) = snapshot::recover_applied(self.lock.dir()) {
            // Seeded with the replayed tail, as on the primary: a long
            // replay earns a prompt snapshot.
            let cfg = DurabilityConfig::new(&self.shared.dir);
            match Durable::open(self.lock.clone(), cfg, rec.next_lsn, rec.replayed) {
                Ok(log) => self.log = Some(log),
                Err(_) => return,
            }
            let applied = rec.next_lsn - 1;
            *self.shared.store.lock() = Some(rec.store);
            self.applied = applied;
            self.durable = applied;
            self.shared.publish(|p| {
                p.stats.applied_lsn = applied;
                p.stats.durable_lsn = applied;
                p.stats.ready = true;
            });
        }

        let mut backoff = Backoff::new(config.backoff_base, config.backoff_cap);
        while !self.shared.shutdown.load(Ordering::Acquire) {
            let Ok(stream) = TcpStream::connect_timeout(&primary, Duration::from_millis(250))
            else {
                thread::park_timeout(backoff.next_sleep());
                continue;
            };
            // Stored before the flag is read again: a stop either finds
            // this socket to cut or is seen here.
            let stream = Arc::new(stream);
            *self.shared.link.lock() = Some(Arc::clone(&stream));
            if self.shared.shutdown.load(Ordering::Acquire) {
                *self.shared.link.lock() = None;
                break;
            }
            self.shared.publish(|p| {
                p.stats.connections += 1;
                p.stats.connected = true;
            });
            let before = self.applied;
            let outcome = self.session(stream, config);
            // The last reference: the socket closes before any backoff.
            *self.shared.link.lock() = None;
            self.shared.publish(|p| p.stats.connected = false);
            // A session that advanced the log was healthy, whatever ended
            // it: restart the backoff streak. Fruitless sessions escalate
            // it, so a dead primary isn't hammered.
            if self.applied > before {
                backoff.reset();
            }
            if outcome.is_err() && !self.shared.shutdown.load(Ordering::Acquire) {
                thread::park_timeout(backoff.next_sleep());
            }
        }

        if self.shared.graceful.load(Ordering::Acquire) {
            // Durable seal: fsync the tail and publish a covering
            // snapshot, so promotion recovers the full applied prefix
            // with no replay ambiguity.
            let _ = self.publish_local_snapshot();
        }
    }

    /// One shipping session: handshake, optional bootstrap, apply loop.
    /// `Ok(())` is a clean exit (shutdown); `Err` means reconnect.
    fn session(&mut self, stream: Arc<TcpStream>, config: &ReplicaConfig) -> io::Result<()> {
        let stream = &*stream;
        stream.set_nodelay(true).ok();
        // The handshake and the preamble arrive promptly or the session
        // is abandoned.
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        wire::send_hello(stream, &config.name, self.applied, self.term)?;
        // Every read goes through this buffer; acks go to the socket.
        let mut reader = BufReader::new(stream);

        // The primary's first bytes are its term announcement. Fencing
        // happens here, before any preamble is trusted: a primary behind
        // our persisted term is a zombie and nothing it sends — snapshot,
        // frame or heartbeat — may touch local state.
        let FromPrimary::Term(session_term) = wire::read_from_primary(&mut reader)? else {
            return Err(invalid("primary did not announce its term"));
        };
        if session_term < self.term {
            let ours = self.term;
            return self.fence(format!(
                "primary at stale term {session_term}, ours is {ours}"
            ));
        }
        self.term = session_term;
        self.shared.publish(|p| p.stats.term = session_term);

        // Then the trace seed, then the bootstrap preamble.
        let FromPrimary::TraceSeed(seed) = wire::read_from_primary(&mut reader)? else {
            return Err(invalid("primary did not announce its trace seed"));
        };
        match wire::read_from_primary(&mut reader)? {
            FromPrimary::Snapshot(bytes) => {
                let snap = snapshot::decode_snapshot(&bytes)?;
                self.install_snapshot(snap).map_err(|e| self.fail_stop(e))?;
            }
            // The primary agreed to resume but we have no baseline store —
            // protocol violation, don't guess.
            FromPrimary::Resume if self.log.is_none() => {
                return Err(invalid("resume offered to a replica with no local state"));
            }
            FromPrimary::Resume => {}
            _ => return Err(invalid("unexpected preamble message from primary")),
        }

        // The adopted term goes durable before the first ack under it: a
        // restart must never hello with a term lower than one it acked in,
        // or a zombie could slip past the fence. Checked against the *on
        // disk* term (not the one we helloed with) because a bootstrap
        // just rewrote the manifest from scratch.
        if session_term > 0 {
            snapshot::bump_term(self.lock.dir(), session_term).map_err(|e| self.fail_stop(e))?;
        }

        // Apply loop, paced by the stream: reads block until the primary
        // sends, and a stop cuts them by shutting the socket's read half.
        stream.set_read_timeout(None)?;
        let mut since_ack = 0u64;
        while !self.shared.shutdown.load(Ordering::Acquire) {
            let msg = match wire::read_from_primary(&mut reader) {
                Ok(msg) => msg,
                // A stop cut the read; the loop condition ends the session.
                Err(_) if self.shared.shutdown.load(Ordering::Acquire) => break,
                Err(e) => return Err(e),
            };
            let beat = matches!(msg, FromPrimary::Heartbeat);
            match msg {
                FromPrimary::Frame { term, frame } => {
                    if term != session_term {
                        // A frame from another term on a session fenced to
                        // this one: reject it before it touches anything.
                        return self
                            .fence(format!("frame term {term} on term-{session_term} session"));
                    }
                    if frame.lsn <= self.applied {
                        self.shared.publish(|p| {
                            p.last_beat = Some(Instant::now());
                            p.stats.frames_duplicate += 1;
                        });
                    } else if frame.lsn > self.applied + 1 {
                        // A hole (dropped frame / missed history): resuming
                        // from `applied` is the only safe continuation.
                        self.shared.publish(|p| {
                            p.last_beat = Some(Instant::now());
                            p.stats.gaps += 1;
                        });
                        self.ack_now(stream).ok();
                        return Err(invalid("LSN gap in shipped stream"));
                    } else {
                        self.apply_frame(&frame, seed)?;
                        since_ack += 1;
                        if self.log.as_ref().is_some_and(Durable::should_snapshot) {
                            self.publish_local_snapshot()?;
                        }
                    }
                }
                FromPrimary::Heartbeat => {
                    self.shared.publish(|p| p.last_beat = Some(Instant::now()))
                }
                _ => return Err(invalid("unexpected stream message from primary")),
            }
            // Close the received group — one fsync, one ack — at
            // `ack_every` frames, at a heartbeat, or once everything
            // received has been read: the primary's commit-on-idle, so a
            // link that goes quiet leaves no partial group undurable.
            let drained = since_ack > 0 && reader.buffer().is_empty();
            if beat || drained || since_ack >= config.ack_every {
                self.ack_now(stream)?;
                since_ack = 0;
            }
        }
        self.ack_now(stream).ok();
        Ok(())
    }

    /// Stops the replica after an error writing its own copy. The writer
    /// may have dropped records it was handed (its next LSN stays past
    /// them), so syncing on could ack across the hole: the replica drops
    /// the writer, publishes `ready = false` (no router sends it a read),
    /// stops applying and acking, and its thread ends. A later start
    /// recovers exactly what is on disk.
    fn fail_stop(&mut self, e: io::Error) -> io::Error {
        self.log = None;
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.publish(|p| p.stats.ready = false);
        e
    }

    /// Counts a fencing refusal and ends the session with it.
    fn fence(&self, why: String) -> io::Result<()> {
        self.shared.publish(|p| p.stats.fenced += 1);
        Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("fenced: {why}"),
        ))
    }

    /// Installs a bootstrap snapshot: the snapshot's store with its
    /// pending tail applied in order *is* the sequential state at
    /// `last_lsn`. The local dir is reset to it so recovery and promotion
    /// see a normal `snapshot + WAL` layout.
    fn install_snapshot(&mut self, snap: snapshot::Snapshot) -> io::Result<()> {
        // Close any open WAL before its files are deleted under it.
        self.log = None;
        let mut store = snap.store;
        for trade in &snap.pending {
            store.apply_update(trade);
        }
        snapshot::reset_dir(self.lock.dir(), &store, snap.last_lsn)?;
        let cfg = DurabilityConfig::new(&self.shared.dir);
        let log = Durable::open(self.lock.clone(), cfg, snap.last_lsn + 1, 0)?;
        self.log = Some(log);
        *self.shared.store.lock() = Some(store);
        self.applied = snap.last_lsn;
        self.durable = snap.last_lsn;
        self.shared.publish(|p| {
            p.stats.applied_lsn = snap.last_lsn;
            p.stats.durable_lsn = snap.last_lsn;
            p.stats.bootstraps += 1;
            p.stats.ready = true;
        });
        Ok(())
    }

    /// Applies one in-order frame: append to the local WAL
    /// (byte-identical, same LSN), then apply it to the store.
    ///
    /// The append is **deferred** — no per-frame fsync. The received
    /// group (everything since the last ack) becomes durable with the
    /// single sync [`Applier::ack_now`] issues before reporting
    /// `durable_lsn`, so the replica amortizes its commit cost exactly
    /// like the primary's group-commit leader, and a mid-group
    /// disconnect can never have acked an unsynced prefix.
    fn apply_frame(&mut self, frame: &Frame, seed: u64) -> io::Result<()> {
        let Some(log) = self.log.as_mut() else {
            return Err(invalid("frame before any baseline"));
        };
        log.append_shipped(frame.lsn, &frame.payload)
            .map_err(|e| self.fail_stop(e))?;
        if let Some(trade) = wal::decode_trade(&frame.payload) {
            if let Some(store) = self.shared.store.lock().as_mut() {
                store.apply_update(&trade);
            }
        }
        self.applied = frame.lsn;
        let mut progress = self.shared.progress.lock();
        progress.last_beat = Some(Instant::now());
        progress.stats.applied_lsn = frame.lsn;
        progress.stats.frames_applied += 1;
        if let Some(ring) = &mut progress.ring {
            // Timestamped with the LSN (logical time), so same-seed runs
            // export byte-identical replica trace JSONL.
            let ctx = TraceCtx::root(update_trace_id(seed, frame.lsn)).child(SPAN_APPLY);
            ring.push(
                frame.lsn,
                TraceEvent::ReplicaApply {
                    ctx,
                    lsn: frame.lsn,
                },
            );
        }
        Ok(())
    }

    /// Syncs the local WAL, then acks. The sync-before-ack order is the
    /// durability contract: an acked LSN is never lost to a replica
    /// crash.
    ///
    /// Only a failed sync is an error. A failed send ends nothing: the
    /// stream paces the session, so it ends on the read that finds the
    /// link broken, after applying every frame that arrived before the
    /// break — as many as if no ack had been tried.
    fn ack_now(&mut self, stream: &TcpStream) -> io::Result<()> {
        if let Some(log) = self.log.as_mut() {
            if self.applied > self.durable {
                log.sync().map_err(|e| self.fail_stop(e))?;
                self.durable = self.applied;
                self.shared.publish(|p| p.stats.durable_lsn = self.durable);
            }
        }
        let ack = Ack {
            applied_lsn: self.applied,
            durable_lsn: self.durable,
            term: self.term,
        };
        let _ = wire::send_ack(stream, ack);
        Ok(())
    }

    /// Publishes a snapshot covering everything applied through
    /// `Durable`, which rotates (and so syncs) the WAL first, keeping old
    /// replica segments collectable. A replica applies every frame as it
    /// arrives and owes no update, so each item's missed count is 0.
    fn publish_local_snapshot(&mut self) -> io::Result<()> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        let published = {
            let store = self.shared.store.lock();
            let Some(store) = store.as_ref() else {
                return Ok(());
            };
            log.publish_snapshot(store, &vec![0; store.len()], &[])
        };
        published.flatten().map_err(|e| self.fail_stop(e))?;
        self.durable = self.applied;
        self.shared.publish(|p| {
            p.stats.durable_lsn = self.durable;
            p.stats.snapshots_written += 1;
        });
        Ok(())
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::repl::{ShipConfig, ShipListener};
    use crate::runtime::Engine;
    use quts_db::{FsyncPolicy, StockId, Trade};
    use std::net::TcpListener;

    #[test]
    fn shutdown_cuts_a_reconnect_backoff_short() {
        // A port nothing listens on: every connect is refused at once,
        // so the thread spends its life in the 5 s backoff.
        let closed = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("bind");
        let dir = std::env::temp_dir().join(format!("quts-replica-backoff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ReplicaConfig::new("r", &dir)
            .with_backoff(Duration::from_secs(5), Duration::from_secs(5));
        let replica = Replica::start(closed, config).expect("start");
        thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        let stats = replica.shutdown();
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "shutdown waited {:?}",
            asked.elapsed()
        );
        assert_eq!(stats.connections, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replica_refuses_a_directory_with_a_live_writer() {
        let dir = std::env::temp_dir().join(format!("quts-replica-locked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::start(
            Store::with_synthetic_stocks(1),
            EngineConfig::default().with_durability(DurabilityConfig::new(&dir)),
        );
        let closed = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("bind");
        let err = Replica::start(closed, ReplicaConfig::new("r", &dir)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        engine.shutdown();
        // Its writer gone, the directory is the replica's to recover.
        let replica = Replica::start(closed, ReplicaConfig::new("r", &dir)).expect("start");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !replica.stats().ready {
            assert!(Instant::now() < deadline, "{:?}", replica.stats());
            thread::sleep(Duration::from_millis(2));
        }
        replica.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_idle_replica_syncs_its_partial_group_and_stops_at_once() {
        let dir = std::env::temp_dir().join(format!("quts-replica-idle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(dir.join("p")).with_fsync(FsyncPolicy::Always);
        let engine = Engine::start(
            Store::with_synthetic_stocks(1),
            EngineConfig::default().with_durability(durability),
        );
        // No heartbeat and no `ack_every` boundary within the test: only
        // the drained stream can close the group.
        let ship = ShipListener::start(
            &engine.handle(),
            ShipConfig::default().with_heartbeat(Duration::from_secs(30)),
        )
        .expect("ship");
        let config = ReplicaConfig::new("r", dir.join("r")).with_ack_every(1000);
        let replica = Replica::start(ship.addr(), config).expect("start");
        const N: u64 = 5;
        for i in 0..N {
            let trade = Trade {
                stock: StockId(0),
                price: i as f64,
                volume: 1,
                trade_time_ms: 0,
            };
            let ticket = engine.submit_update_durable(trade).expect("admitted");
            assert_eq!(ticket.recv().expect("durable"), i + 1);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while replica.stats().durable_lsn < N {
            assert!(Instant::now() < deadline, "{:?}", replica.stats());
            thread::sleep(Duration::from_millis(2));
        }
        // The link is silent and the replica blocked in a read: the stop
        // must cut it, not wait on a heartbeat.
        let asked = Instant::now();
        let stats = replica.shutdown();
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "shutdown waited {:?}",
            asked.elapsed()
        );
        assert_eq!((stats.applied_lsn, stats.durable_lsn), (N, N));
        let peer_durable = || ship.registry().peers()[0].durable_lsn;
        while peer_durable() < N {
            assert!(Instant::now() < deadline, "peer durable {}", peer_durable());
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(peer_durable(), N);
        ship.shutdown();
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replica_whose_wal_write_fails_stops_and_acks_nothing_it_lost() {
        use quts_db::simdir::{SimDir, WriteFault};
        let dir =
            std::env::temp_dir().join(format!("quts-replica-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(dir.join("p")).with_fsync(FsyncPolicy::Always);
        let engine = Engine::start(
            Store::with_synthetic_stocks(1),
            EngineConfig::default().with_durability(durability),
        );
        let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).expect("ship");
        // The bootstrap writes the snapshot (1), the MANIFEST (2) and the
        // segment's magic header (3); each frame is then flushed alone
        // before its ack, so write 5 is the second frame's.
        let sim = SimDir::default().fault_write(5, WriteFault::Fail);
        let config = ReplicaConfig::new("r", dir.join("r")).with_ack_every(1);
        let replica =
            Replica::start_in(ship.addr(), sim.dir(dir.join("r")), config).expect("start");
        const N: u64 = 6;
        for i in 0..N {
            let trade = Trade {
                stock: StockId(0),
                price: i as f64,
                volume: 1,
                trade_time_ms: 0,
            };
            let ticket = engine.submit_update_durable(trade).expect("admitted");
            assert_eq!(ticket.recv().expect("durable"), i + 1);
        }
        // Stopped on the failed write, or (the fault) caught up past it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = replica.stats();
            if (s.bootstraps > 0 && !s.ready) || s.durable_lsn >= N {
                break;
            }
            assert!(Instant::now() < deadline, "{s:?}");
            thread::sleep(Duration::from_millis(2));
        }
        let acked = ship.registry().peers()[0].durable_lsn;
        let stats = replica.kill();
        let rec = snapshot::recover_applied(dir.join("r"))
            .unwrap()
            .expect("bootstrapped");
        let on_disk = rec.next_lsn - 1;
        assert_eq!(
            (on_disk, rec.truncated_bytes),
            (1, 0),
            "frame 2 never landed"
        );
        assert!(!stats.ready, "{stats:?}");
        assert!(stats.durable_lsn <= on_disk, "{stats:?}");
        assert!(acked <= on_disk, "acked {acked}, {on_disk} on disk");
        ship.shutdown();
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
