//! Primary-side WAL shipping.
//!
//! [`ShipListener`] serves an engine's durability directory over TCP:
//! each connected replica gets its own shipping thread that follows the
//! log with a read-only [`WalTailer`] — never the mutating
//! `replay_dir` — and streams frames in LSN order. No thread here runs
//! on a timer: the writer sleeps on the engine's log head (woken by each
//! commit group, or when a heartbeat is due), a second thread blocks
//! reading the replica's acks, and the acceptor blocks in `accept`
//! until [`ShipListener::shutdown`] wakes it. A replica that asks
//! to resume from LSN 0 (no local state) or from a point the primary
//! has already garbage-collected is bootstrapped from the directory's
//! current snapshot first (quts-db picks it), then tailed from the
//! snapshot's LSN.
//!
//! The shipper is also the chaos port: a [`LinkFaultPlan`] injects
//! dropped frames, duplicated frames, per-frame delay, mid-frame
//! disconnects and full partitions into the outgoing stream, exercising
//! exactly the resume and CRC paths a flaky network would.
//!
//! **Term fencing.** The listener serves under the fencing term
//! persisted in its directory's MANIFEST at start. A replica whose
//! hello carries a *higher* term proves this primary is a zombie — the
//! session is refused before a single frame moves, and the refusal is
//! counted. A replica on a *lower* term is a survivor of an older
//! primary. If it is exactly one term behind, it followed our
//! immediate predecessor — whose history we extend — so it may resume
//! at or below the term's floor: the WAL position where this term
//! began, which `snapshot::bump_term` recorded in the MANIFEST beside
//! the term. Above the floor its tail may diverge from ours and it is
//! force-bootstrapped from a snapshot instead. A replica two
//! or more terms behind is *always* force-bootstrapped: its history
//! split from ours at some older term boundary this listener has no
//! floor for, so even a resume LSN below our floor proves nothing.
//! Acks are only trusted when they echo our own term.
//!
//! **Tracing.** The listener records through the engine it ships: a
//! `ship_frame` event per shipped frame and the replica-lag series go
//! to that engine's trace sink, stamped on its wall-clock epoch, and
//! only when it traces. Every session announces the engine's trace seed,
//! so a replica derives the same per-LSN trace ids.

use crate::fault::LinkFaultPlan;
use crate::repl::wire;
use crate::runtime::EngineHandle;
use crate::shared::EngineShared;
use parking_lot::Mutex;
use quts_db::snapshot;
use quts_db::tail::{TailPoll, WalTailer};
use quts_metrics::{update_trace_id, LogHistogram, SeriesKind, TraceCtx, TraceEvent, SPAN_SHIP};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Knobs for a [`ShipListener`].
#[derive(Debug, Clone)]
pub struct ShipConfig {
    /// Address to listen on (`127.0.0.1:0` picks a free port).
    pub addr: SocketAddr,
    /// Outgoing-link fault injection, applied per connection.
    pub fault: Option<LinkFaultPlan>,
    /// How often an idle stream sends its heartbeat.
    pub heartbeat: Duration,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            fault: None,
            heartbeat: Duration::from_millis(25),
        }
    }
}

impl ShipConfig {
    /// Builder: sets the outgoing-link fault plan.
    pub fn with_fault(mut self, fault: LinkFaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Builder: sets the heartbeat interval.
    pub fn with_heartbeat(mut self, every: Duration) -> Self {
        self.heartbeat = every;
        self
    }
}

/// The primary's view of one replica, aggregated from its acks. All
/// counters survive reconnects (keyed by replica name).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaPeerStats {
    /// Replica name from its handshake.
    pub name: String,
    /// Highest LSN the replica reported applied.
    pub applied_lsn: u64,
    /// Highest LSN the replica reported durable in its own WAL.
    pub durable_lsn: u64,
    /// Whether a shipping connection is currently open.
    pub connected: bool,
    /// Frames written to this replica's link (dropped frames excluded).
    pub frames_shipped: u64,
    /// Snapshot bootstraps served.
    pub bootstraps: u64,
    /// Connections accepted for this name.
    pub connections: u64,
}

/// One replica's counters, under its own lock: the sessions serving it
/// update them in place and [`ShipRegistry::peers`] copies them out.
#[derive(Debug)]
struct PeerEntry {
    /// Every field but `connected`, which a copy computes from
    /// `sessions`.
    stats: ReplicaPeerStats,
    /// Live shipping sessions. Counted, not flagged: two sessions for
    /// one name overlap while the older winds down, and its end must not
    /// mark the live one disconnected.
    sessions: u64,
}

/// What every session of a listener adds to, and the term they ship
/// under, in one struct under one lock; [`ShipRegistry::totals`] copies
/// it out whole.
#[derive(Debug, Clone, Default)]
pub struct ShipTotals {
    /// The fencing term this listener serves under (from its MANIFEST).
    pub term: u64,
    /// Fencing events: sessions refused because a replica proved a
    /// higher term exists, plus acks discarded for a term mismatch
    /// (`quts_fenced_frames_total`).
    pub fenced: u64,
    /// Frames behind at each heartbeat, aggregated across peers
    /// (`quts_repl_lag_frames`).
    pub lag_frames: LogHistogram,
    /// Ship-to-ack round trip per acked frame, µs, aggregated across
    /// peers (`quts_repl_apply_lag_us`).
    pub apply_lag_us: LogHistogram,
}

/// Shared registry of per-replica shipping state — the source for the
/// server's per-replica `METRICS` gauges and the aggregated
/// replication-lag histograms. Lock order: the peer map, then a peer.
#[derive(Debug, Default)]
pub struct ShipRegistry {
    peers: Mutex<HashMap<String, Arc<Mutex<PeerEntry>>>>,
    totals: Mutex<ShipTotals>,
}

impl ShipRegistry {
    /// Counts a new session for `name` and returns its peer entry.
    fn open_session(&self, name: &str) -> Arc<Mutex<PeerEntry>> {
        let mut peers = self.peers.lock();
        let peer = Arc::clone(peers.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Mutex::new(PeerEntry {
                stats: ReplicaPeerStats {
                    name: name.to_string(),
                    ..ReplicaPeerStats::default()
                },
                sessions: 0,
            }))
        }));
        let mut entry = peer.lock();
        entry.stats.connections += 1;
        entry.sessions += 1;
        drop(entry);
        peer
    }

    /// Snapshots the term, the fencing count and both lag histograms,
    /// taken together under one lock.
    pub fn totals(&self) -> ShipTotals {
        self.totals.lock().clone()
    }

    /// Snapshots every known replica, sorted by name.
    pub fn peers(&self) -> Vec<ReplicaPeerStats> {
        let peers = self.peers.lock();
        let mut out: Vec<ReplicaPeerStats> = peers
            .values()
            .map(|peer| {
                let entry = peer.lock();
                ReplicaPeerStats {
                    connected: entry.sessions > 0,
                    ..entry.stats.clone()
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// A WAL shipping service over an engine's durability directory.
///
/// Dropping the listener (or calling [`ShipListener::shutdown`]) stops
/// accepting and signals every shipping thread to exit.
pub struct ShipListener {
    addr: SocketAddr,
    shipper: Arc<Shipper>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ShipListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipListener")
            .field("addr", &self.addr)
            .field("dir", &self.shipper.dir)
            .finish_non_exhaustive()
    }
}

/// What a listener, its acceptor and every shipping thread share.
struct Shipper {
    /// The shipped engine's durability directory.
    dir: PathBuf,
    config: ShipConfig,
    /// The LSN at which the served term began, read from the MANIFEST
    /// with the term: how far a replica one term behind may resume.
    floor: u64,
    registry: Arc<ShipRegistry>,
    stop: AtomicBool,
    /// The shipped engine: its seed, and the trace sink and epoch
    /// shipping events are recorded into and stamped on.
    primary: Arc<EngineShared>,
}

impl ShipListener {
    /// Starts shipping `primary`'s durability directory on
    /// `config.addr`, under the fencing term persisted in the
    /// directory's MANIFEST and the floor recorded with it.
    ///
    /// # Errors
    /// `InvalidInput` when the engine is not durable (it has no WAL to
    /// ship); any error binding `config.addr`.
    pub fn start(primary: &EngineHandle, config: ShipConfig) -> io::Result<ShipListener> {
        let primary = Arc::clone(&primary.shared);
        let Some(dir) = primary.durable_dir.clone() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shipping requires a durable engine (no WAL to ship)",
            ));
        };
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let (term, floor) = snapshot::manifest_term_floor(&dir);
        let registry = ShipRegistry::default();
        registry.totals.lock().term = term;
        let shipper = Arc::new(Shipper {
            dir,
            config,
            floor,
            registry: Arc::new(registry),
            stop: AtomicBool::new(false),
            primary,
        });
        let acceptor = {
            let shipper = Arc::clone(&shipper);
            thread::Builder::new()
                .name("quts-ship-accept".into())
                .spawn(move || accept_loop(listener, &shipper))
                .expect("spawn acceptor")
        };
        Ok(ShipListener {
            addr,
            shipper,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address replicas should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-replica stats registry.
    pub fn registry(&self) -> Arc<ShipRegistry> {
        Arc::clone(&self.shipper.registry)
    }

    /// Stale-term frames, acks and sessions this listener fenced.
    pub fn fenced_total(&self) -> u64 {
        self.shipper.registry.totals.lock().fenced
    }

    /// Stops accepting, ends every shipping session and joins them.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.shipper.stop.store(true, Ordering::Release);
            // Every writer wakes and ends its session, which unblocks its
            // ack reader.
            self.shipper.primary.log_head.wake();
            // One connection returns the acceptor from `accept`; it reads
            // the flag, stored above, before it would serve it.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(Ipv4Addr::LOCALHOST.into());
            }
            let _ = TcpStream::connect(wake);
            let _ = acceptor.join();
        }
    }
}

impl Drop for ShipListener {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Accepts replicas until the listener stops; the scope joins every
/// session before the acceptor exits.
fn accept_loop(listener: TcpListener, shipper: &Shipper) {
    thread::scope(|s| {
        for conn in listener.incoming() {
            if shipper.stop.load(Ordering::Acquire) {
                break;
            }
            match conn {
                Ok(stream) => {
                    thread::Builder::new()
                        .name("quts-ship-conn".into())
                        .spawn_scoped(s, move || {
                            // Shipping errors close the connection; the
                            // replica reconnects and resumes.
                            let _ = ship_connection(shipper, stream);
                        })
                        .expect("spawn shipper");
                }
                // An accept error (out of descriptors, say) lasts until
                // something closes; back off rather than spin on it.
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
    });
}

/// Per-connection link-fault state: counters over the frame sequence
/// this connection has attempted to ship.
#[derive(Debug, Default)]
struct LinkState {
    seen: u64,
}

enum LinkAction {
    /// Write the frame this many times (0 drops it, 2 duplicates it).
    Ship(u64),
    DisconnectMidFrame,
}

impl LinkState {
    /// Whether the injected partition has engaged: the link delivers
    /// nothing (frames or heartbeats) from the `n`-th frame on.
    fn partitioned(&self, plan: Option<&LinkFaultPlan>) -> bool {
        plan.and_then(|p| p.partition_after)
            .is_some_and(|n| self.seen >= n)
    }

    /// Whether the last frame attempted was dropped, so no later frame
    /// has shown the replica its gap yet.
    fn tail_dropped(&self, plan: Option<&LinkFaultPlan>) -> bool {
        plan.and_then(|p| p.drop_frame_every)
            .is_some_and(|k| self.seen > 0 && self.seen.is_multiple_of(k))
    }

    fn next(&mut self, plan: Option<&LinkFaultPlan>) -> LinkAction {
        self.seen += 1;
        let Some(plan) = plan else {
            return LinkAction::Ship(1);
        };
        if plan.partition_after.is_some_and(|n| self.seen > n) {
            return LinkAction::Ship(0);
        }
        if let Some(d) = plan.delay_per_frame {
            thread::sleep(d);
        }
        let hits = |every: Option<u64>| every.is_some_and(|k| self.seen.is_multiple_of(k));
        // Disconnect outranks the others: it ends the connection, so a
        // same-index drop/duplicate would be moot anyway.
        if hits(plan.disconnect_mid_frame_every) {
            LinkAction::DisconnectMidFrame
        } else if hits(plan.drop_frame_every) {
            LinkAction::Ship(0)
        } else if hits(plan.duplicate_frame_every) {
            LinkAction::Ship(2)
        } else {
            LinkAction::Ship(1)
        }
    }
}

fn ship_connection(shipper: &Shipper, mut stream: TcpStream) -> io::Result<()> {
    let registry = &shipper.registry;
    stream.set_nodelay(true).ok();
    // The handshake arrives promptly or the connection is abandoned.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let hello = wire::read_hello(&mut stream)?;
    // Past the handshake the ack reader blocks; the end of the session
    // shuts the socket under it.
    stream.set_read_timeout(None)?;
    let term = registry.totals.lock().term;
    if hello.term > term {
        // The replica has persisted a higher term than ours: a failover
        // happened behind our back and we are the zombie. Refuse the
        // session before a single frame moves — nothing we ship or hear
        // acked may be trusted.
        registry.totals.lock().fenced += 1;
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!(
                "fenced: replica {} is at term {}, we are at {}",
                hello.name, hello.term, term
            ),
        ));
    }
    // Term announcement first — the replica fences us on this one byte
    // sequence before trusting anything else — then the trace seed.
    wire::send_term(&stream, term)?;
    wire::send_trace_seed(&stream, shipper.primary.seed)?;
    // A survivor of an older term may only resume when its whole tail
    // is provably shared history. The floor persisted beside the term
    // marks where *our* term began, so it can vouch only for a replica
    // exactly one term behind (it followed the predecessor whose log we
    // extend); a replica two or more terms behind diverged at some older
    // boundary the floor says nothing about — its resume point can sit
    // below our floor yet above the split — so it re-bootstraps
    // unconditionally.
    let force_bootstrap =
        hello.term < term && (hello.term + 1 < term || hello.resume_lsn > shipper.floor);
    let peer = registry.open_session(&hello.name);
    let session = Session {
        shipper,
        stream: &stream,
        peer: &peer,
        term,
        outstanding: Mutex::default(),
        partitioned: AtomicBool::default(),
        over: AtomicBool::default(),
    };
    let result = session.run(hello.resume_lsn, force_bootstrap);
    peer.lock().sessions -= 1;
    result
}

/// Longest remembered ship-to-ack window; past this the oldest in-flight
/// frame is forgotten rather than growing memory against a stuck replica.
const OUTSTANDING_CAP: usize = 4096;

/// Frames fetched per tailer poll (bounds per-iteration memory).
const BATCH: usize = 256;

/// One replica's shipping session: what its writer and its ack reader
/// share.
struct Session<'a> {
    shipper: &'a Shipper,
    stream: &'a TcpStream,
    peer: &'a Mutex<PeerEntry>,
    /// The term this session ships under.
    term: u64,
    /// (lsn, ship time) per in-flight frame, drained as acks arrive —
    /// the source of the ship-to-ack apply-lag histogram.
    outstanding: Mutex<VecDeque<(u64, Instant)>>,
    /// The injected partition has engaged.
    partitioned: AtomicBool,
    /// One side has ended; the other follows.
    over: AtomicBool,
}

impl Session<'_> {
    /// Sends the bootstrap or resume preamble, then runs the writer on
    /// this thread and the ack reader on a second one until either ends.
    fn run(&self, resume_lsn: u64, force_bootstrap: bool) -> io::Result<()> {
        let dir = &self.shipper.dir;
        // Bootstrap decision: a replica with no state (resume 0) always
        // gets a snapshot (it needs a baseline store); a resuming replica
        // gets one if the segments covering its position were collected,
        // or if its resume point belongs to an older term (divergent
        // tail).
        let needs_snapshot = force_bootstrap || resume_lsn == 0 || {
            let mut probe = WalTailer::new(dir, resume_lsn);
            matches!(probe.poll(1)?, TailPoll::Gap { .. })
        };
        let tailer = if needs_snapshot {
            let (snap_lsn, bytes) = snapshot::current_bytes(dir)?;
            wire::send_snapshot(self.stream, &bytes)?;
            self.peer.lock().stats.bootstraps += 1;
            WalTailer::new(dir, snap_lsn)
        } else {
            wire::send_resume(self.stream)?;
            WalTailer::new(dir, resume_lsn)
        };
        thread::scope(|s| {
            s.spawn(|| {
                let _ = self.read_acks();
                self.end();
            });
            let result = self.write_log(tailer);
            self.end();
            result
        })
    }

    /// Ends the session for both sides: the socket shutdown unblocks the
    /// reader, the log-head wake the writer.
    fn end(&self) {
        self.over.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.shipper.primary.log_head.wake();
    }

    /// The writer: ships frames as the log grows and a heartbeat when
    /// one is due, sleeping on the log head in between.
    fn write_log(&self, mut tailer: WalTailer) -> io::Result<()> {
        let (config, primary) = (&self.shipper.config, &self.shipper.primary);
        let mut stream = self.stream;
        let plan = config.fault.as_ref();
        let stop = &self.shipper.stop;
        let done = || stop.load(Ordering::Acquire) || self.over.load(Ordering::Acquire);
        let mut link = LinkState::default();
        let mut last_beat = Instant::now();
        // Where the log head stood before the last poll. Starting from 0
        // costs at most one extra poll.
        let mut head = 0;
        while !done() {
            let frames = match tailer.poll(BATCH)? {
                TailPoll::Frames(frames) => frames,
                // The log moved on under us (snapshot GC). Closing makes
                // the replica reconnect, and the fresh handshake takes the
                // bootstrap path.
                TailPoll::Gap { .. } => {
                    return Err(io::Error::other("shipped position was collected"))
                }
            };
            for frame in &frames {
                let msg = wire::encode_frame(self.term, frame);
                match link.next(plan) {
                    LinkAction::Ship(0) => {}
                    LinkAction::Ship(copies) => {
                        for _ in 0..copies {
                            stream.write_all(&msg)?;
                        }
                        self.peer.lock().stats.frames_shipped += copies;
                        self.note_shipped(frame.lsn);
                    }
                    LinkAction::DisconnectMidFrame => {
                        // Half a frame, then a hard close: the receiver
                        // sees a short read and must resume from its last
                        // ack.
                        stream.write_all(&msg[..msg.len() / 2])?;
                        return Err(io::Error::other("fault injection: mid-frame disconnect"));
                    }
                }
            }
            self.partitioned
                .store(link.partitioned(plan), Ordering::Release);
            if last_beat.elapsed() >= config.heartbeat {
                last_beat = Instant::now();
                // A partitioned link swallows the beat too.
                if !link.partitioned(plan) {
                    if link.tail_dropped(plan) {
                        // No frame after the dropped one will show the
                        // replica its gap, so the link resets instead, as
                        // a transport timing out would: the replica
                        // resumes after its last applied frame.
                        return Err(io::Error::other("fault injection: dropped tail frame"));
                    }
                    wire::send_heartbeat(stream)?;
                    // One frames-behind sample per heartbeat: the last
                    // file-visible LSN at the tailer's position against
                    // the last applied LSN the replica reported.
                    let applied = self.peer.lock().stats.applied_lsn;
                    let lag = (tailer.next_lsn() - 1).saturating_sub(applied);
                    self.shipper.registry.totals.lock().lag_frames.record(lag);
                    primary.trace_sample(SeriesKind::ReplicaLagFrames, lag as f64);
                }
            }
            if frames.len() < BATCH {
                // Caught up: sleep until the next commit group, the next
                // heartbeat, or the end of the session.
                head = primary
                    .log_head
                    .wait_past(head, last_beat + config.heartbeat, done);
            }
        }
        Ok(())
    }

    /// Bookkeeping for one frame written to the link: a `ship_frame`
    /// event (span parented under the update's root) when the primary
    /// traces, and an in-flight entry for the apply-lag measurement.
    fn note_shipped(&self, lsn: u64) {
        let primary = &self.shipper.primary;
        let ctx = TraceCtx::root(update_trace_id(primary.seed, lsn)).child(SPAN_SHIP);
        primary.trace_push(TraceEvent::ShipFrame { ctx, lsn });
        // The outstanding queue feeds the registry's apply-lag histogram
        // — a metrics surface, tracked whether or not the primary traces.
        let mut outstanding = self.outstanding.lock();
        outstanding.push_back((lsn, Instant::now()));
        if outstanding.len() > OUTSTANDING_CAP {
            outstanding.pop_front();
        }
    }

    /// The ack reader: blocks on the replica's progress reports and
    /// applies each, until the link fails or the session ends.
    fn read_acks(&self) -> io::Result<()> {
        let (registry, primary) = (&self.shipper.registry, &self.shipper.primary);
        let mut stream = self.stream;
        loop {
            let ack = wire::read_ack(&mut stream)?;
            // An injected partition swallows acks: a black-holed link
            // delivers nothing in either direction, so the primary's
            // peer view freezes.
            if self.partitioned.load(Ordering::Acquire) {
                continue;
            }
            if ack.term != self.term {
                // An ack from another term proves nothing about
                // replication under ours — discard it whole.
                registry.totals.lock().fenced += 1;
                continue;
            }
            let mut peer = self.peer.lock();
            peer.stats.applied_lsn = ack.applied_lsn;
            peer.stats.durable_lsn = ack.durable_lsn;
            drop(peer);
            // Every frame the ack covers yields one ship-to-ack
            // round-trip sample.
            let mut outstanding = self.outstanding.lock();
            while let Some(&(lsn, shipped_at)) = outstanding.front() {
                if lsn > ack.applied_lsn {
                    break;
                }
                outstanding.pop_front();
                let us = shipped_at.elapsed().as_micros() as u64;
                registry.totals.lock().apply_lag_us.record(us);
                primary.trace_sample(SeriesKind::ReplicaLagMicros, us as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::durability::DurabilityConfig;
    use crate::repl::{Replica, ReplicaConfig};
    use crate::runtime::Engine;
    use quts_db::wal::FsyncPolicy;
    use quts_db::{StockId, Store, Trade};

    fn durable_engine(tag: &str) -> (Engine, PathBuf) {
        let dir = std::env::temp_dir().join(format!("quts-ship-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(dir.join("p")).with_fsync(FsyncPolicy::Always);
        let config = EngineConfig::default().with_durability(durability);
        (Engine::start(Store::with_synthetic_stocks(1), config), dir)
    }

    fn await_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn an_in_memory_engine_has_no_wal_to_ship() {
        let engine = Engine::start(Store::with_synthetic_stocks(1), EngineConfig::default());
        let refused = ShipListener::start(&engine.handle(), ShipConfig::default());
        assert_eq!(
            refused.expect_err("no WAL to ship").kind(),
            io::ErrorKind::InvalidInput
        );
        engine.shutdown();
    }

    #[test]
    fn an_older_session_ending_leaves_the_live_one_connected() {
        let (engine, dir) = durable_engine("overlap");
        let ship = ShipListener::start(&engine.handle(), ShipConfig::default()).unwrap();
        let open = || {
            let mut s = TcpStream::connect(ship.addr()).unwrap();
            wire::send_hello(&mut s, "r", 0, 0).unwrap();
            s
        };
        let live = || {
            let peers = ship.shipper.registry.peers.lock();
            peers.get("r").map_or(0, |peer| peer.lock().sessions)
        };
        let first = open();
        await_until("the first session", || live() == 1);
        let second = open();
        await_until("the second session", || live() == 2);
        drop(first);
        await_until("the first session's threads to exit", || live() < 2);
        assert!(ship.registry().peers()[0].connected);
        drop(second);
        await_until("both sessions to end", || {
            !ship.registry().peers()[0].connected
        });
        ship.shutdown();
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_is_prompt_with_an_idle_replica_and_with_a_partitioned_one() {
        let partitioned = LinkFaultPlan::default().partition_after(2);
        for (tag, config) in [
            ("idle", ShipConfig::default()),
            ("partitioned", ShipConfig::default().with_fault(partitioned)),
        ] {
            let (engine, dir) = durable_engine(tag);
            let ship = ShipListener::start(&engine.handle(), config).unwrap();
            let replica = Replica::start(ship.addr(), ReplicaConfig::new("r", dir.join("r")));
            for i in 0..4 {
                let trade = Trade {
                    stock: StockId(0),
                    price: f64::from(i),
                    volume: 1,
                    trade_time_ms: 0,
                };
                engine.submit_update(trade).unwrap();
            }
            await_until("two shipped frames", || {
                ship.registry()
                    .peers()
                    .first()
                    .is_some_and(|p| p.connected && p.frames_shipped >= 2)
            });
            // Let the writer go idle (and, partitioned, swallow a beat).
            thread::sleep(Duration::from_millis(60));
            let start = Instant::now();
            ship.shutdown();
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{tag}: shutdown took {:?}",
                start.elapsed()
            );
            replica.unwrap().shutdown();
            engine.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
