//! Primary-side WAL shipping.
//!
//! [`ShipListener`] serves an engine's durability directory over TCP:
//! each connected replica gets its own shipping thread that follows the
//! log with a read-only [`WalTailer`] — never the mutating
//! `replay_dir` — and streams frames in LSN order. A replica that asks
//! to resume from LSN 0 (no local state) or from a point the primary
//! has already garbage-collected is bootstrapped from the newest
//! snapshot file first, then tailed from the snapshot's LSN.
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
//! at or below the listener's `term_floor` (the WAL position where
//! this term began); above the floor its tail may diverge from ours
//! and it is force-bootstrapped from a snapshot instead. A replica two
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
use crate::repl::wire::{self, Ack};
use crate::runtime::EngineHandle;
use crate::shared::EngineShared;
use quts_db::snapshot;
use quts_db::tail::{TailPoll, WalTailer};
use quts_metrics::{update_trace_id, LogHistogram, SeriesKind, TraceCtx, TraceEvent, SPAN_SHIP};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Knobs for a [`ShipListener`].
#[derive(Debug, Clone)]
pub struct ShipConfig {
    /// Address to listen on (`127.0.0.1:0` picks a free port).
    pub addr: SocketAddr,
    /// Outgoing-link fault injection, applied per connection.
    pub fault: Option<LinkFaultPlan>,
    /// How often an idle stream sends its watermark heartbeat.
    pub heartbeat: Duration,
    /// The WAL LSN at which this primary's term began. The floor can
    /// only vouch for a replica exactly one term behind (it followed
    /// the immediate predecessor whose history this term extends): such
    /// a replica may resume at or below the floor, and is bootstrapped
    /// from a snapshot above it, where its tail may diverge. A replica
    /// two or more terms behind is always bootstrapped — its history
    /// split at an older boundary this floor says nothing about. A
    /// promoted primary sets this to its LSN at promotion; 0 (the
    /// default) means any stale-term resume beyond LSN 0 re-bootstraps.
    pub term_floor: u64,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            fault: None,
            heartbeat: Duration::from_millis(25),
            term_floor: 0,
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

    /// Builder: sets the LSN at which this primary's term began.
    pub fn with_term_floor(mut self, floor: u64) -> Self {
        self.term_floor = floor;
        self
    }
}

/// The primary's view of one replica, aggregated from its acks. All
/// counters survive reconnects (keyed by replica name).
#[derive(Debug, Clone, PartialEq, Eq)]
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

#[derive(Debug, Default)]
struct PeerEntry {
    applied: AtomicU64,
    durable: AtomicU64,
    connected: AtomicBool,
    shipped: AtomicU64,
    bootstraps: AtomicU64,
    connections: AtomicU64,
}

/// Shared registry of per-replica shipping state — the source for the
/// server's per-replica `METRICS` gauges and the aggregated
/// replication-lag histograms.
#[derive(Debug, Default)]
pub struct ShipRegistry {
    peers: Mutex<HashMap<String, Arc<PeerEntry>>>,
    /// Frames behind at each heartbeat, aggregated across peers
    /// (`quts_repl_lag_frames`).
    lag_frames: Mutex<LogHistogram>,
    /// Ship-to-ack round trip per acked frame, µs, aggregated across
    /// peers (`quts_repl_apply_lag_us`).
    apply_lag_us: Mutex<LogHistogram>,
    /// The fencing term this listener serves under (from its MANIFEST).
    term: AtomicU64,
    /// Fencing events: sessions refused because a replica proved a
    /// higher term exists, plus acks discarded for a term mismatch
    /// (`quts_fenced_frames_total`).
    fenced: AtomicU64,
}

impl ShipRegistry {
    fn entry(&self, name: &str) -> Arc<PeerEntry> {
        let mut peers = self.peers.lock().expect("registry lock");
        Arc::clone(peers.entry(name.to_string()).or_default())
    }

    fn note_fenced(&self) {
        self.fenced.fetch_add(1, Ordering::AcqRel);
    }

    /// The fencing term this listener ships under.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// Total fencing events on the primary side: refused sessions and
    /// discarded term-mismatched acks.
    pub fn fenced_total(&self) -> u64 {
        self.fenced.load(Ordering::Acquire)
    }

    fn record_lag_frames(&self, frames: u64) {
        self.lag_frames
            .lock()
            .expect("lag hist lock")
            .record(frames);
    }

    fn record_apply_lag_us(&self, us: u64) {
        self.apply_lag_us.lock().expect("lag hist lock").record(us);
    }

    /// Snapshot of the aggregated frames-behind histogram (one sample
    /// per peer heartbeat).
    pub fn lag_frames_histogram(&self) -> LogHistogram {
        self.lag_frames.lock().expect("lag hist lock").clone()
    }

    /// Snapshot of the aggregated ship-to-ack latency histogram (µs,
    /// one sample per acked frame).
    pub fn apply_lag_histogram(&self) -> LogHistogram {
        self.apply_lag_us.lock().expect("lag hist lock").clone()
    }

    /// Snapshots every known replica, sorted by name.
    pub fn peers(&self) -> Vec<ReplicaPeerStats> {
        let peers = self.peers.lock().expect("registry lock");
        let mut out: Vec<ReplicaPeerStats> = peers
            .iter()
            .map(|(name, e)| ReplicaPeerStats {
                name: name.clone(),
                applied_lsn: e.applied.load(Ordering::Acquire),
                durable_lsn: e.durable.load(Ordering::Acquire),
                connected: e.connected.load(Ordering::Acquire),
                frames_shipped: e.shipped.load(Ordering::Acquire),
                bootstraps: e.bootstraps.load(Ordering::Acquire),
                connections: e.connections.load(Ordering::Acquire),
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
    registry: Arc<ShipRegistry>,
    stop: AtomicBool,
    /// The shipped engine: its seed, and the trace sink and epoch
    /// shipping events are recorded into and stamped on.
    primary: Arc<EngineShared>,
}

impl ShipListener {
    /// Starts shipping `primary`'s durability directory on
    /// `config.addr`, under the fencing term persisted in the
    /// directory's MANIFEST.
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
        listener.set_nonblocking(true)?;
        let registry = Arc::new(ShipRegistry::default());
        registry
            .term
            .store(snapshot::manifest_term(&dir), Ordering::Release);
        let shipper = Arc::new(Shipper {
            dir,
            config,
            registry,
            stop: AtomicBool::new(false),
            primary,
        });
        let acceptor = {
            let shipper = Arc::clone(&shipper);
            thread::Builder::new()
                .name("quts-ship-accept".into())
                .spawn(move || accept_loop(listener, shipper))
                .expect("spawn acceptor")
        };
        Ok(ShipListener {
            addr,
            shipper,
            acceptor: Some(acceptor),
        })
    }

    /// The durability directory this listener ships from.
    pub fn dir(&self) -> PathBuf {
        self.shipper.dir.clone()
    }

    /// The bound address replicas should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-replica stats registry.
    pub fn registry(&self) -> Arc<ShipRegistry> {
        Arc::clone(&self.shipper.registry)
    }

    /// The fencing term this listener ships under.
    pub fn term(&self) -> u64 {
        self.shipper.registry.term()
    }

    /// Stale-term frames, acks and sessions this listener fenced.
    pub fn fenced_total(&self) -> u64 {
        self.shipper.registry.fenced_total()
    }

    /// Stops accepting and signals shipping threads to exit.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shipper.stop.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ShipListener {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(listener: TcpListener, shipper: Arc<Shipper>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shipper.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shipper = Arc::clone(&shipper);
                let handle = thread::Builder::new()
                    .name("quts-ship-conn".into())
                    .spawn(move || {
                        // Shipping errors close the connection; the
                        // replica reconnects and resumes.
                        let _ = ship_connection(&shipper, stream);
                    })
                    .expect("spawn shipper");
                conns.push(handle);
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Reads the newest decodable snapshot's raw file bytes (the replica
/// re-checks the trailing CRC itself after transfer).
fn newest_snapshot_bytes(dir: &Path) -> io::Result<(u64, Vec<u8>)> {
    for (lsn, path) in snapshot::snapshot_files(dir)? {
        let mut bytes = Vec::new();
        if File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .is_err()
        {
            continue;
        }
        if snapshot::decode_snapshot(&bytes).is_ok() {
            return Ok((lsn, bytes));
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "no decodable snapshot to bootstrap from",
    ))
}

/// Per-connection link-fault state: counters over the frame sequence
/// this connection has attempted to ship.
#[derive(Debug, Default)]
struct LinkState {
    seen: u64,
}

enum LinkAction {
    Ship,
    ShipTwice,
    Drop,
    DisconnectMidFrame,
}

impl LinkState {
    /// Whether the injected partition has engaged: the link delivers
    /// nothing (frames or heartbeats) from the `n`-th frame on.
    fn partitioned(&self, plan: Option<&LinkFaultPlan>) -> bool {
        plan.and_then(|p| p.partition_after)
            .is_some_and(|n| self.seen >= n)
    }

    fn next(&mut self, plan: Option<&LinkFaultPlan>) -> LinkAction {
        self.seen += 1;
        let Some(plan) = plan else {
            return LinkAction::Ship;
        };
        if plan.partition_after.is_some_and(|n| self.seen > n) {
            return LinkAction::Drop;
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
            LinkAction::Drop
        } else if hits(plan.duplicate_frame_every) {
            LinkAction::ShipTwice
        } else {
            LinkAction::Ship
        }
    }
}

fn ship_connection(shipper: &Shipper, mut stream: TcpStream) -> io::Result<()> {
    let Shipper {
        config, registry, ..
    } = shipper;
    stream.set_nodelay(true).ok();
    // The handshake arrives promptly or the connection is abandoned.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let hello = wire::read_hello(&mut stream)?;
    let term = registry.term();
    if hello.term > term {
        // The replica has persisted a higher term than ours: a failover
        // happened behind our back and we are the zombie. Refuse the
        // session before a single frame moves — nothing we ship or hear
        // acked may be trusted.
        registry.note_fenced();
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
    wire::send_term(&mut stream, term)?;
    wire::send_trace_seed(&mut stream, shipper.primary.seed)?;
    // A survivor of an older term may only resume when its whole tail
    // is provably shared history. The persisted floor marks where *our*
    // term began, so it can vouch only for a replica exactly one term
    // behind (it followed the predecessor whose log we extend); a
    // replica two or more terms behind diverged at some older boundary
    // the floor says nothing about — its resume point can sit below our
    // floor yet above the split — so it re-bootstraps unconditionally.
    let force_bootstrap =
        hello.term < term && (hello.term + 1 < term || hello.resume_lsn > config.term_floor);
    let peer = registry.entry(&hello.name);
    peer.connections.fetch_add(1, Ordering::AcqRel);
    peer.connected.store(true, Ordering::Release);
    let result = ship_stream(
        shipper,
        &mut stream,
        &peer,
        hello.resume_lsn,
        term,
        force_bootstrap,
    );
    peer.connected.store(false, Ordering::Release);
    result
}

/// Longest remembered ship-to-ack window; past this the oldest in-flight
/// frame is forgotten rather than growing memory against a stuck replica.
const OUTSTANDING_CAP: usize = 4096;

/// Bookkeeping for one frame written to the link: a `ship_frame` event
/// (span parented under the update's root) when the primary traces, and
/// an in-flight entry for the apply-lag measurement.
fn note_shipped(shipper: &Shipper, outstanding: &mut VecDeque<(u64, Instant)>, lsn: u64) {
    let primary = &shipper.primary;
    let ctx = TraceCtx::root(update_trace_id(primary.seed, lsn)).child(SPAN_SHIP);
    primary.trace_push(TraceEvent::ShipFrame { ctx, lsn });
    // The outstanding queue feeds the registry's apply-lag histogram —
    // a metrics surface, tracked whether or not the primary traces.
    outstanding.push_back((lsn, Instant::now()));
    if outstanding.len() > OUTSTANDING_CAP {
        outstanding.pop_front();
    }
}

/// How long a stream sleeps when the tailer reports no new frames.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Frames fetched per tailer poll (bounds per-iteration memory).
const BATCH: usize = 256;

fn ship_stream(
    shipper: &Shipper,
    stream: &mut TcpStream,
    peer: &PeerEntry,
    resume_lsn: u64,
    term: u64,
    force_bootstrap: bool,
) -> io::Result<()> {
    let Shipper {
        dir,
        config,
        registry,
        stop,
        primary,
    } = shipper;
    // Bootstrap decision: a replica with no state (resume 0) always gets
    // a snapshot (it needs a baseline store); a resuming replica gets
    // one if the segments covering its position were collected, or if
    // its resume point belongs to an older term (divergent tail).
    let needs_snapshot = force_bootstrap || resume_lsn == 0 || {
        let mut probe = WalTailer::new(dir, resume_lsn);
        matches!(probe.poll(1)?, TailPoll::Gap { .. })
    };
    let mut tailer = if needs_snapshot {
        let (snap_lsn, bytes) = newest_snapshot_bytes(dir)?;
        stream.write_all(&[wire::TAG_SNAP])?;
        stream.write_all(&(bytes.len() as u64).to_le_bytes())?;
        stream.write_all(&bytes)?;
        peer.bootstraps.fetch_add(1, Ordering::AcqRel);
        WalTailer::new(dir, snap_lsn)
    } else {
        stream.write_all(&[wire::TAG_RESUME])?;
        WalTailer::new(dir, resume_lsn)
    };

    let mut link = LinkState::default();
    let mut last_beat = Instant::now();
    // (lsn, ship time) per in-flight frame, drained as acks arrive —
    // the source of the ship-to-ack apply-lag histogram.
    let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
    // Ack reads are opportunistic: a short timeout per loop iteration.
    stream.set_read_timeout(Some(Duration::from_millis(1)))?;

    while !stop.load(Ordering::Acquire) {
        let frames = match tailer.poll(BATCH)? {
            TailPoll::Frames(frames) => frames,
            TailPoll::Gap { .. } => {
                // The log moved on under us (snapshot GC). Closing makes
                // the replica reconnect, and the fresh handshake takes
                // the bootstrap path.
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "shipped position was garbage-collected",
                ));
            }
        };
        let progressed = !frames.is_empty();
        let term_bytes = term.to_le_bytes();
        for frame in &frames {
            let bytes = quts_db::wal::encode_frame(frame.lsn, &frame.payload);
            match link.next(config.fault.as_ref()) {
                LinkAction::Ship => {
                    stream.write_all(&[wire::TAG_FRAME])?;
                    stream.write_all(&term_bytes)?;
                    stream.write_all(&bytes)?;
                    peer.shipped.fetch_add(1, Ordering::AcqRel);
                    note_shipped(shipper, &mut outstanding, frame.lsn);
                }
                LinkAction::ShipTwice => {
                    stream.write_all(&[wire::TAG_FRAME])?;
                    stream.write_all(&term_bytes)?;
                    stream.write_all(&bytes)?;
                    stream.write_all(&[wire::TAG_FRAME])?;
                    stream.write_all(&term_bytes)?;
                    stream.write_all(&bytes)?;
                    peer.shipped.fetch_add(2, Ordering::AcqRel);
                    note_shipped(shipper, &mut outstanding, frame.lsn);
                }
                LinkAction::Drop => {}
                LinkAction::DisconnectMidFrame => {
                    // Half a frame, then a hard close: the receiver sees
                    // a short read and must resume from its last ack.
                    let half = bytes.len() / 2;
                    stream.write_all(&[wire::TAG_FRAME])?;
                    stream.write_all(&term_bytes)?;
                    stream.write_all(&bytes[..half])?;
                    stream.flush()?;
                    return Err(io::Error::other("fault injection: mid-frame disconnect"));
                }
            }
        }

        // Drain any progress reports the replica sent. An injected
        // partition swallows them: a black-holed link delivers nothing
        // in either direction, so the primary's peer view freezes.
        while !link.partitioned(config.fault.as_ref()) {
            match wire::read_u8(stream) {
                Ok(tag) if tag == wire::TAG_ACK => {
                    // The tag arrived; give the 24-byte body a real
                    // timeout so a packet boundary can't desync us.
                    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
                    let ack: Ack = wire::read_ack_body(stream)?;
                    stream.set_read_timeout(Some(Duration::from_millis(1)))?;
                    if ack.term != term {
                        // An ack from another term proves nothing about
                        // replication under ours — discard it whole.
                        registry.note_fenced();
                        continue;
                    }
                    peer.applied.store(ack.applied_lsn, Ordering::Release);
                    peer.durable.store(ack.durable_lsn, Ordering::Release);
                    // Every frame the ack covers yields one ship-to-ack
                    // round-trip sample.
                    while let Some(&(lsn, shipped_at)) = outstanding.front() {
                        if lsn > ack.applied_lsn {
                            break;
                        }
                        outstanding.pop_front();
                        let us = shipped_at.elapsed().as_micros() as u64;
                        registry.record_apply_lag_us(us);
                        primary.trace_sample(SeriesKind::ReplicaLagMicros, us as f64);
                    }
                }
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected tag from replica",
                    ));
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
        }

        if last_beat.elapsed() >= config.heartbeat && !link.partitioned(config.fault.as_ref()) {
            // The watermark is the last file-visible LSN at the tailer's
            // position — what lag is measured against on the wire.
            let watermark = tailer.next_lsn() - 1;
            let mut beat = [0u8; 9];
            beat[0] = wire::TAG_HEARTBEAT;
            beat[1..9].copy_from_slice(&watermark.to_le_bytes());
            stream.write_all(&beat)?;
            last_beat = Instant::now();
            // One frames-behind sample per heartbeat, against the last
            // applied LSN the replica reported.
            let lag = watermark.saturating_sub(peer.applied.load(Ordering::Acquire));
            registry.record_lag_frames(lag);
            primary.trace_sample(SeriesKind::ReplicaLagFrames, lag as f64);
        }

        if !progressed {
            thread::sleep(POLL_INTERVAL);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::runtime::Engine;
    use quts_db::Store;

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
}
