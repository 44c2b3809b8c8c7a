//! Periodic full-store snapshots and the `snapshot + WAL tail`
//! recovery protocol.
//!
//! A snapshot file (`snap-<lsn016x>.db`) captures everything the engine
//! needs to resume honest QoD accounting:
//!
//! * every stock record (symbol, price, volume, trade time, the
//!   moving-average history window),
//! * the per-item `#uu` counters of the [`StalenessTracker`] — without
//!   them a recovered engine would report data as fresh that it knows
//!   has pending updates,
//! * the **pending update queue** (register-collapsed, arrival order) —
//!   updates that were logged and counted stale but not yet applied,
//! * the WAL LSN the snapshot covers (`last_lsn`), the replay floor.
//!
//! The whole file is covered by a trailing CRC-32. A one-line text
//! `MANIFEST` (also checksummed, published by atomic rename) names the
//! authoritative snapshot. Which snapshot a directory stands on has one
//! rule, private to this module: the MANIFEST's pick if it decodes, else
//! the newest snapshot file that does. Recovery, the replica and the
//! WAL shipper all read through it.
//!
//! This module decides what a durability directory holds. [`open`] is
//! how a primary starts over one: a directory without a MANIFEST is
//! initialised from the given store, an initialised one is recovered
//! ([`recover`]: decode the current snapshot, then [`wal::replay_dir`]
//! the tail (`lsn > last_lsn`), folding tail records into the pending
//! queue with register-table semantics (one pending update per item; a
//! newer arrival replaces the payload in place) and bumping `#uu` per
//! arrival — exactly what the live ingest path does). A replica
//! recovers with [`recover_applied`], which applies every record
//! instead, and re-seeds its directory from a bootstrap with
//! [`reset_dir`]; a shipper sends [`current_bytes`]. A directory has
//! one writer at a time: whoever holds its [`DirLock`].
//!
//! Every change these functions make to a directory — the snapshot file,
//! the MANIFEST's tmp write and rename, collection, recovery's repairs,
//! the `LOCK` file — goes through the filesystem seam of the
//! [`Dir`](crate::wal::Dir) they are given; a path is a `Dir` over
//! `std::fs`. Reads are plain `std::fs`.

use crate::ops::Trade;
use crate::record::StockRecord;
use crate::staleness::StalenessTracker;
use crate::store::Store;
use crate::wal::{self, crc32, Dir};
use std::fs::{File, TryLockError};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
const SNAPSHOT_MAGIC: &[u8; 8] = b"QUTSSNAP";

/// Snapshot format version.
const SNAPSHOT_VERSION: u32 = 1;

/// The manifest file name inside a durability directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The lock file name inside a durability directory (see [`lock`]).
const LOCK_NAME: &str = "LOCK";

fn snapshot_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("snap-{lsn:016x}.db"))
}

// --- Encoding ---

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a snapshot body (store + `#uu` counters + pending queue +
/// covered LSN) with the trailing CRC.
pub fn encode_snapshot(store: &Store, missed: &[u64], pending: &[Trade], last_lsn: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + store.len() * 96 + pending.len() * 28);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, last_lsn);
    put_u32(&mut out, store.len() as u32);
    for (_, record) in store.iter() {
        let sym = record.symbol().as_bytes();
        put_u16(&mut out, sym.len() as u16);
        out.extend_from_slice(sym);
        put_u64(&mut out, record.price().to_bits());
        put_u64(&mut out, record.volume());
        put_u64(&mut out, record.last_trade_time_ms());
        put_u16(&mut out, record.history_len() as u16);
        for price in record.history() {
            put_u64(&mut out, price.to_bits());
        }
    }
    // `#uu` counters, one per item (zero-filled if the caller's tracker
    // is shorter than the store, which only happens in hand-built tests).
    for i in 0..store.len() {
        put_u64(&mut out, missed.get(i).copied().unwrap_or(0));
    }
    put_u32(&mut out, pending.len() as u32);
    for trade in pending {
        out.extend_from_slice(&wal::encode_trade(trade));
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

// --- Decoding ---

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

/// A decoded snapshot body.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The reconstructed store contents.
    pub store: Store,
    /// Per-item `#uu` counters at snapshot time.
    pub missed: Vec<u64>,
    /// The register-collapsed pending update queue, arrival order.
    pub pending: Vec<Trade>,
    /// Highest WAL LSN whose effects (applied or pending) this snapshot
    /// captures; replay starts after it.
    pub last_lsn: u64,
}

/// Decodes and checksum-verifies a snapshot. Any malformation — bad
/// magic, wrong version, CRC mismatch, truncation — is an error, never
/// a panic; the caller falls back to an older snapshot.
pub fn decode_snapshot(buf: &[u8]) -> io::Result<Snapshot> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {what}"));
    if buf.len() < SNAPSHOT_MAGIC.len() + 4 + 8 + 4 + 4 + 4 {
        return Err(bad("too short"));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != want {
        return Err(bad("checksum mismatch"));
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(8) != Some(SNAPSHOT_MAGIC.as_slice()) {
        return Err(bad("bad magic"));
    }
    if r.u32() != Some(SNAPSHOT_VERSION) {
        return Err(bad("unknown version"));
    }
    let last_lsn = r.u64().ok_or_else(|| bad("truncated header"))?;
    let n = r.u32().ok_or_else(|| bad("truncated header"))? as usize;
    let mut records = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let sym_len = r.u16().ok_or_else(|| bad("truncated record"))? as usize;
        let sym = r.take(sym_len).ok_or_else(|| bad("truncated symbol"))?;
        let sym = std::str::from_utf8(sym).map_err(|_| bad("non-utf8 symbol"))?;
        let price = f64::from_bits(r.u64().ok_or_else(|| bad("truncated record"))?);
        let volume = r.u64().ok_or_else(|| bad("truncated record"))?;
        let time = r.u64().ok_or_else(|| bad("truncated record"))?;
        let hist_len = r.u16().ok_or_else(|| bad("truncated record"))? as usize;
        let mut history = Vec::with_capacity(hist_len.min(4096));
        for _ in 0..hist_len {
            history.push(f64::from_bits(
                r.u64().ok_or_else(|| bad("truncated history"))?,
            ));
        }
        records.push(StockRecord::from_parts(sym, price, volume, time, history));
    }
    let mut missed = Vec::with_capacity(n);
    for _ in 0..n {
        missed.push(r.u64().ok_or_else(|| bad("truncated counters"))?);
    }
    let n_pending = r.u32().ok_or_else(|| bad("truncated pending"))? as usize;
    let mut pending = Vec::with_capacity(n_pending.min(1 << 20));
    for _ in 0..n_pending {
        let bytes = r
            .take(wal::TRADE_PAYLOAD)
            .ok_or_else(|| bad("truncated pending trade"))?;
        pending.push(wal::decode_trade(bytes).ok_or_else(|| bad("bad pending trade"))?);
    }
    if r.pos != body.len() {
        return Err(bad("trailing garbage"));
    }
    Ok(Snapshot {
        store: Store::from_records(records),
        missed,
        pending,
        last_lsn,
    })
}

// --- Manifest ---

fn render_manifest(snapshot_file: &str, last_lsn: u64, term: u64, floor: u64) -> String {
    let mut text = String::new();
    text.push_str("quts-manifest-v1\n");
    text.push_str(&format!("snapshot {snapshot_file} {last_lsn}\n"));
    if term > 0 {
        text.push_str(&format!("term {term}\n"));
    }
    if floor > 0 {
        text.push_str(&format!("floor {floor}\n"));
    }
    let crc = crc32(text.as_bytes());
    text.push_str(&format!("crc {crc:08x}\n"));
    text
}

/// A parsed manifest: the authoritative snapshot, its covered LSN, the
/// replication term the directory last served under (0 when the
/// manifest predates term fencing), and that term's floor: the LSN the
/// directory's history reached when the term was bumped (0 when the
/// manifest predates floors, which vouches for no stale-term resume).
struct Manifest {
    file: String,
    lsn: u64,
    term: u64,
    floor: u64,
}

/// Parses a manifest; `None` on any corruption (recovery falls back to
/// a directory scan).
fn parse_manifest(text: &str) -> Option<Manifest> {
    let body_end = text.rfind("crc ")?;
    let (body, crc_line) = text.split_at(body_end);
    let want = u32::from_str_radix(crc_line.trim().strip_prefix("crc ")?, 16).ok()?;
    if crc32(body.as_bytes()) != want {
        return None;
    }
    let mut lines = body.lines();
    if lines.next()? != "quts-manifest-v1" {
        return None;
    }
    let snap_line = lines.next()?;
    let mut parts = snap_line.split_whitespace();
    if parts.next()? != "snapshot" {
        return None;
    }
    let file = parts.next()?.to_string();
    let lsn = parts.next()?.parse().ok()?;
    // The term and floor lines are optional: manifests written before
    // term fencing carry term 0, and those written before floors carry
    // floor 0, so an old durability dir stays recoverable.
    let (mut term, mut floor) = (0, 0);
    for line in lines {
        if let Some(rest) = line.strip_prefix("term ") {
            term = rest.trim().parse().ok()?;
        } else if let Some(rest) = line.strip_prefix("floor ") {
            floor = rest.trim().parse().ok()?;
        }
    }
    Some(Manifest {
        file,
        lsn,
        term,
        floor,
    })
}

/// The replication term persisted in `dir`'s manifest; 0 when the
/// manifest is absent, corrupt, or predates term fencing. Terms only
/// ever move through [`bump_term`], so this is the fencing floor: a
/// primary whose peers have persisted a higher term is a zombie.
pub fn manifest_term(dir: &Path) -> u64 {
    manifest_term_floor(dir).0
}

/// The term persisted in `dir`'s manifest (see [`manifest_term`]) and
/// the floor [`bump_term`] recorded with it: the LSN the directory's
/// history reached when that term began. `(term, 0)` when the manifest
/// predates floors, `(0, 0)` when it is absent or corrupt.
pub fn manifest_term_floor(dir: &Path) -> (u64, u64) {
    read_manifest(dir).map_or((0, 0), |m| (m.term, m.floor))
}

/// `dir`'s parsed manifest; `None` when it is absent or corrupt.
fn read_manifest(dir: &Path) -> Option<Manifest> {
    parse_manifest(&std::fs::read_to_string(dir.join(MANIFEST_NAME)).ok()?)
}

/// Persists `term` into `dir`'s manifest if it is higher than the term
/// already recorded — terms are monotone, so a stale bump is a no-op.
/// Returns the term in effect after the call.
///
/// The new term's floor is recorded beside it: the last LSN a read-only
/// [`wal::walk`] from the manifest's snapshot reaches (the snapshot's
/// own LSN after a seal or a clean shutdown). Everything at or below it
/// is history this directory had before the term began, so it is never
/// above the directory's last LSN at the bump.
pub fn bump_term(dir: impl Into<Dir>, term: u64) -> io::Result<u64> {
    let dir = dir.into();
    let text = std::fs::read_to_string(dir.path.join(MANIFEST_NAME))?;
    let m = parse_manifest(&text).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt manifest in {}", dir.path.display()),
        )
    })?;
    if term <= m.term {
        return Ok(m.term);
    }
    let walk = wal::walk(&dir.path, m.lsn)?;
    let floor = walk.records.last().map_or(m.lsn, |f| f.lsn);
    publish_manifest(&dir, &m.file, m.lsn, (term, floor))?;
    Ok(term)
}

/// Writes the manifest, with its `(term, floor)`, atomically (tmp +
/// rename) and syncs the directory so the rename itself is durable.
fn publish_manifest(
    dir: &Dir,
    snapshot_file: &str,
    last_lsn: u64,
    (term, floor): (u64, u64),
) -> io::Result<()> {
    let text = render_manifest(snapshot_file, last_lsn, term, floor);
    let tmp = dir.path.join("MANIFEST.tmp");
    dir.write_synced(&tmp, text.as_bytes())?;
    dir.fs.rename(&tmp, &dir.path.join(MANIFEST_NAME))?;
    dir.fs.sync_dir(&dir.path)
}

/// Snapshot files in `dir`, sorted newest (highest LSN) first.
pub fn snapshot_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = wal::listed(dir, |name| {
        let hex = name.strip_prefix("snap-")?.strip_suffix(".db")?;
        u64::from_str_radix(hex, 16).ok()
    })?;
    files.reverse();
    Ok(files)
}

// --- Publishing ---

/// Whether `dir` was ever initialised: it holds a MANIFEST. An
/// initialised directory is recovered, never initialised over.
pub fn initialised(dir: &Path) -> bool {
    dir.join(MANIFEST_NAME).exists()
}

/// Initialises a durability directory with a baseline snapshot of
/// `store` at LSN 0.
fn init_dir(dir: impl Into<Dir>, store: &Store) -> io::Result<()> {
    let dir = dir.into();
    dir.create()?;
    let missed = vec![0u64; store.len()];
    publish(dir, store, &missed, &[], 0)
}

/// An exclusive hold on a durability directory, shared by its clones
/// and released when the last one drops. Its holder is the directory's
/// one writer, and writes through the [`Dir`] it locked; readers take
/// no lock.
#[derive(Debug, Clone)]
pub struct DirLock {
    _file: Arc<File>,
    dir: Dir,
}

impl DirLock {
    /// The locked directory, with the seam its writer goes through.
    pub fn dir(&self) -> Dir {
        self.dir.clone()
    }
}

/// Takes the exclusive lock on `dir`'s `LOCK` file, creating the
/// directory and the file when missing. `WouldBlock` while another
/// handle — in this process or another — holds it; nothing else in the
/// directory is touched either way. (The `LOCK` file is always empty,
/// so creating it over itself changes nothing.)
pub fn lock(dir: impl Into<Dir>) -> io::Result<DirLock> {
    let dir = dir.into();
    dir.create()?;
    let file = dir.fs.create(&dir.path.join(LOCK_NAME))?;
    match file.try_lock() {
        Ok(()) => Ok(DirLock {
            _file: Arc::new(file),
            dir,
        }),
        Err(TryLockError::WouldBlock) => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("durability dir {} has a live writer", dir.path.display()),
        )),
        Err(TryLockError::Error(e)) => Err(e),
    }
}

/// Publishes a snapshot into `dir`, a path or a [`Dir`]: write + sync
/// the snapshot file, atomically swing the manifest to it, then
/// garbage-collect snapshots and WAL segments it supersedes, all
/// through `dir`'s seam. The collection is best-effort: a leftover file
/// is harmless (recovery reads neither an older snapshot than the
/// MANIFEST's nor a covered segment), a missing one is not.
///
/// A segment is deletable only when a *later* segment starts at or
/// before `last_lsn + 1`, i.e. every record it holds is covered by the
/// snapshot. The engine rotates to a fresh segment before publishing,
/// so all prior segments become deletable.
pub fn publish(
    dir: impl Into<Dir>,
    store: &Store,
    missed: &[u64],
    pending: &[Trade],
    last_lsn: u64,
) -> io::Result<()> {
    let dir = dir.into();
    let path = snapshot_path(&dir.path, last_lsn);
    dir.write_synced(&path, &encode_snapshot(store, missed, pending, last_lsn))?;
    let file_name = path.file_name().unwrap().to_string_lossy().into_owned();
    // The new manifest keeps the term, and its floor, the directory
    // already carries.
    publish_manifest(&dir, &file_name, last_lsn, manifest_term_floor(&dir.path))?;
    for (lsn, old) in snapshot_files(&dir.path)? {
        if lsn < last_lsn {
            let _ = dir.fs.remove_file(&old);
        }
    }
    let segments = wal::segment_files(&dir.path)?;
    for pair in segments.windows(2) {
        if pair[1].0 <= last_lsn + 1 {
            let _ = dir.fs.remove_file(&pair[0].1);
        }
    }
    Ok(())
}

/// Resets `dir` to hold exactly `store` at `last_lsn`: every WAL
/// segment, snapshot and the MANIFEST go (the term and its floor with
/// it), then
/// `store` is published as the snapshot covering `last_lsn`, with no
/// missed update and nothing pending. A replica resets to every
/// bootstrap it receives.
pub fn reset_dir(dir: impl Into<Dir>, store: &Store, last_lsn: u64) -> io::Result<()> {
    let dir = dir.into();
    dir.create()?;
    let manifest = dir.path.join(MANIFEST_NAME);
    let files = wal::segment_files(&dir.path)?.into_iter();
    for (_, path) in files.chain(snapshot_files(&dir.path)?) {
        dir.fs.remove_file(&path)?;
    }
    if manifest.exists() {
        dir.fs.remove_file(&manifest)?;
    }
    publish(dir, store, &vec![0; store.len()], &[], last_lsn)
}

// --- Recovery ---

/// The snapshot `dir` stands on, with its raw file bytes: the MANIFEST's
/// pick if it decodes, else the newest snapshot file that does. `None`
/// when none decodes. Every reader of a directory's snapshot goes
/// through this one rule.
fn current(dir: &Path) -> io::Result<Option<(Snapshot, Vec<u8>)>> {
    let manifest = read_manifest(dir).map(|m| dir.join(m.file));
    let files = snapshot_files(dir)?.into_iter().map(|(_, path)| path);
    for path in manifest.into_iter().chain(files) {
        if let Ok(bytes) = std::fs::read(&path) {
            if let Ok(snap) = decode_snapshot(&bytes) {
                return Ok(Some((snap, bytes)));
            }
        }
    }
    Ok(None)
}

fn no_snapshot(dir: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no valid snapshot in {}", dir.display()),
    )
}

/// The covered LSN and raw file bytes of the snapshot `dir` stands on —
/// what a bootstrapping replica is sent (it re-checks the CRC after
/// transfer). `NotFound` when no snapshot decodes.
pub fn current_bytes(dir: &Path) -> io::Result<(u64, Vec<u8>)> {
    let (snap, bytes) = current(dir)?.ok_or_else(|| no_snapshot(dir))?;
    Ok((snap.last_lsn, bytes))
}

/// Everything recovery reconstructs from `snapshot + WAL tail`.
#[derive(Debug)]
pub struct Recovered {
    /// The store, with snapshot state (tail updates stay *pending* — the
    /// engine applies them through its normal scheduled path).
    pub store: Store,
    /// Staleness counters: snapshot `#uu` plus one arrival per replayed
    /// tail record, so post-recovery `#uu` never under-reports.
    pub tracker: StalenessTracker,
    /// The pending update queue (register-collapsed, arrival order).
    pub pending: Vec<Trade>,
    /// The LSN the next WAL append should use.
    pub next_lsn: u64,
    /// Tail records replayed from the WAL (beyond the snapshot).
    pub replayed: u64,
    /// Torn/corrupt WAL bytes truncated during replay.
    pub truncated_bytes: u64,
    /// The LSN of the snapshot recovery started from.
    pub snapshot_lsn: u64,
}

impl Recovered {
    /// The state of a start over `store` that owes nothing: no `#uu`,
    /// nothing pending, LSN 0 covered — a freshly initialised directory,
    /// or an engine without one.
    pub fn fresh(store: Store) -> Recovered {
        Recovered {
            tracker: StalenessTracker::new(store.len()),
            store,
            pending: Vec::new(),
            next_lsn: 1,
            replayed: 0,
            truncated_bytes: 0,
            snapshot_lsn: 0,
        }
    }
}

/// Opens `dir` for a primary to start over. A directory without a
/// MANIFEST (missing, empty, or never initialised) is initialised with
/// `store` at LSN 0, and the result owes nothing: `store` itself, no
/// `#uu`, nothing pending, `next_lsn` 1. An initialised one is
/// recovered ([`recover`]), and `store` only names the universe it
/// must hold: the same symbols in the same order, checked against the
/// current snapshot before anything is written.
///
/// # Errors
/// `InvalidData` when an initialised directory holds another universe;
/// `NotFound` when it has a MANIFEST but no snapshot decodes (it is
/// never initialised over); IO errors from either branch.
pub fn open(dir: impl Into<Dir>, store: Store) -> io::Result<Recovered> {
    let dir = dir.into();
    if !initialised(&dir.path) {
        init_dir(dir, &store)?;
        return Ok(Recovered::fresh(store));
    }
    let (snap, _) = current(&dir.path)?.ok_or_else(|| no_snapshot(&dir.path))?;
    let held = snap.store.iter().map(|(_, r)| r.symbol());
    if !held.eq(store.iter().map(|(_, r)| r.symbol())) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "durability dir {} holds {} items that are not the {} given",
                dir.path.display(),
                snap.store.len(),
                store.len()
            ),
        ));
    }
    replay_tail(dir, snap)
}

/// Recovers engine state from a durability directory, a path or a
/// [`Dir`]: the current snapshot, then the WAL tail.
///
/// Degrades gracefully at every step — a corrupt manifest falls back to
/// scanning, a corrupt snapshot falls back to the next older one, a torn
/// WAL tail is truncated (bytes counted, through `dir`'s seam) — and
/// only fails if *no* valid snapshot exists at all.
pub fn recover(dir: impl Into<Dir>) -> io::Result<Recovered> {
    let dir = dir.into();
    let (snap, _) = current(&dir.path)?.ok_or_else(|| no_snapshot(&dir.path))?;
    replay_tail(dir, snap)
}

/// Folds `dir`'s WAL tail past `snap` into the state [`recover`]
/// returns.
fn replay_tail(dir: Dir, snap: Snapshot) -> io::Result<Recovered> {
    // Replay the WAL tail and fold it into the pending queue with
    // register semantics, bumping `#uu` per arrival (mirroring the live
    // ingest path). `slot` indexes each item's pending entry, so a tail
    // record finds its place without scanning the queue.
    let replay = wal::replay_dir(dir, snap.last_lsn)?;
    let mut missed = snap.missed;
    missed.resize(snap.store.len(), 0);
    let mut pending = snap.pending;
    let mut slot: Vec<Option<usize>> = vec![None; snap.store.len()];
    for (i, p) in pending.iter().enumerate() {
        if let Some(s) = slot.get_mut(p.stock.index()) {
            s.get_or_insert(i);
        }
    }
    let mut last_lsn = snap.last_lsn;
    let mut replayed = 0u64;
    for frame in &replay.records {
        last_lsn = frame.lsn;
        let Some(trade) = wal::decode_trade(&frame.payload) else {
            continue; // foreign record type; framing already validated
        };
        let item = trade.stock.index();
        if item >= snap.store.len() {
            continue; // update for an item the snapshot never knew
        }
        missed[item] += 1;
        match slot[item] {
            // Register-table semantics: the newer value replaces the
            // pending payload but keeps its queue position.
            Some(i) => pending[i] = trade,
            None => {
                slot[item] = Some(pending.len());
                pending.push(trade);
            }
        }
        replayed += 1;
    }
    Ok(Recovered {
        store: snap.store,
        tracker: StalenessTracker::from_missed(missed),
        pending,
        next_lsn: last_lsn + 1,
        replayed,
        truncated_bytes: replay.truncated_bytes,
        snapshot_lsn: snap.last_lsn,
    })
}

/// Recovers a replica's directory: the current snapshot with its pending
/// queue applied in order, then the WAL tail applied **per record** —
/// not register-collapsed, because `MovingAverage` reads the price
/// history sequential application builds. The store lands exactly where
/// applying the primary's prefix lands it, so the result owes nothing:
/// no missed update, nothing pending. `None` when `dir` was never
/// initialised (no MANIFEST) or no snapshot decodes.
pub fn recover_applied(dir: impl Into<Dir>) -> io::Result<Option<Recovered>> {
    let dir = dir.into();
    if !initialised(&dir.path) {
        return Ok(None);
    }
    let Some((snap, _)) = current(&dir.path)? else {
        return Ok(None);
    };
    let mut store = snap.store;
    for trade in &snap.pending {
        store.apply_update(trade);
    }
    let replay = wal::replay_dir(dir, snap.last_lsn)?;
    let mut last_lsn = snap.last_lsn;
    for frame in &replay.records {
        if let Some(trade) = wal::decode_trade(&frame.payload) {
            store.apply_update(&trade);
        }
        last_lsn = frame.lsn;
    }
    Ok(Some(Recovered {
        tracker: StalenessTracker::from_missed(vec![0; store.len()]),
        store,
        pending: Vec::new(),
        next_lsn: last_lsn + 1,
        replayed: replay.records.len() as u64,
        truncated_bytes: replay.truncated_bytes,
        snapshot_lsn: snap.last_lsn,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StockId;
    use crate::wal::{FsyncPolicy, Wal};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quts-snap-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn trade(stock: u32, price: f64) -> Trade {
        Trade {
            stock: StockId(stock),
            price,
            volume: 9,
            trade_time_ms: 77,
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut store = Store::with_synthetic_stocks(4);
        store.apply_update(&trade(1, 55.5));
        store.apply_update(&trade(1, 66.5));
        let missed = vec![0, 0, 3, 1];
        let pending = vec![trade(2, 10.0), trade(3, 11.0)];
        let bytes = encode_snapshot(&store, &missed, &pending, 42);
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.last_lsn, 42);
        assert_eq!(snap.store.len(), 4);
        assert_eq!(snap.store.record(StockId(1)).price(), 66.5);
        assert_eq!(snap.store.record(StockId(1)).history_len(), 3);
        assert!(
            (snap.store.record(StockId(1)).moving_average(3)
                - store.record(StockId(1)).moving_average(3))
            .abs()
                < 1e-12
        );
        assert_eq!(snap.store.id_of("S0003"), Some(StockId(3)));
        assert_eq!(snap.missed, missed);
        assert_eq!(snap.pending.len(), 2);
        assert_eq!(snap.pending[0].stock, StockId(2));
    }

    #[test]
    fn corrupt_snapshot_is_rejected_not_trusted() {
        let store = Store::with_synthetic_stocks(2);
        let mut bytes = encode_snapshot(&store, &[0, 0], &[], 1);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(decode_snapshot(&bytes).is_err());
        assert!(decode_snapshot(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode_snapshot(b"QUTSSNAP").is_err());
    }

    #[test]
    fn init_then_recover_is_identity() {
        let dir = tmp_dir("identity");
        let store = Store::with_synthetic_stocks(3);
        init_dir(&dir, &store).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.store.len(), 3);
        assert_eq!(rec.pending.len(), 0);
        assert_eq!(rec.replayed, 0);
        assert_eq!(rec.next_lsn, 1);
        assert_eq!(rec.tracker.total_unapplied(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file in `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn open_initialises_a_fresh_directory_and_recovers_an_initialised_one() {
        let dir = tmp_dir("open");
        let missing = dir.join("missing");
        // An empty directory and a missing one are both initialised,
        // and owe nothing.
        for fresh in [&dir, &missing] {
            let rec = open(fresh, Store::with_synthetic_stocks(3)).unwrap();
            assert_eq!((rec.next_lsn, rec.replayed, rec.snapshot_lsn), (1, 0, 0));
            assert!(rec.pending.is_empty());
            assert_eq!(rec.tracker.total_unapplied(), 0);
            assert!(initialised(fresh));
        }
        // An initialised one is recovered: the given store only names
        // the universe, its prices are not read.
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        wal.append(&wal::encode_trade(&trade(1, 10.0))).unwrap();
        drop(wal);
        let mut given = Store::with_synthetic_stocks(3);
        given.apply_update(&trade(0, 1.0));
        let rec = open(&dir, given).unwrap();
        assert_eq!((rec.next_lsn, rec.replayed), (2, 1));
        assert_eq!(rec.store.record(StockId(0)).price(), 100.0);
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.tracker.unapplied(StockId(1)), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_another_universe_before_writing_anything() {
        let dir = tmp_dir("universe");
        open(&dir, Store::with_synthetic_stocks(3)).unwrap();
        let before = dir_bytes(&dir);
        let mut renamed = Store::new();
        for symbol in ["IBM", "AOL", "GE"] {
            renamed.insert(symbol, 100.0);
        }
        for other in [
            renamed,
            Store::with_synthetic_stocks(2),
            Store::with_synthetic_stocks(4),
        ] {
            let err = open(&dir, other).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        assert_eq!(dir_bytes(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_never_initialises_over_a_manifest_without_a_snapshot() {
        let dir = tmp_dir("undecodable");
        open(&dir, Store::with_synthetic_stocks(2)).unwrap();
        for (_, path) in snapshot_files(&dir).unwrap() {
            std::fs::write(path, b"QUTSSNAP torn").unwrap();
        }
        let before = dir_bytes(&dir);
        let err = open(&dir, Store::with_synthetic_stocks(2)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(dir_bytes(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_has_one_lock_holder_and_keeps_its_lock_file() {
        let dir = tmp_dir("lock").join("missing");
        let held = lock(&dir).unwrap();
        assert_eq!(lock(&dir).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        // A replica's bootstrap resets the directory under its own lock.
        reset_dir(&dir, &Store::with_synthetic_stocks(2), 4).unwrap();
        assert!(dir.join(LOCK_NAME).exists());
        drop(held);
        drop(lock(&dir).unwrap());
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn tail_replay_collapses_into_pending_and_counts_uu() {
        let dir = tmp_dir("tail");
        let store = Store::with_synthetic_stocks(4);
        init_dir(&dir, &store).unwrap();
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        // Three arrivals, two on the same stock: the register collapses
        // them to one pending entry but `#uu` counts every arrival.
        wal.append(&wal::encode_trade(&trade(1, 10.0))).unwrap();
        wal.append(&wal::encode_trade(&trade(2, 20.0))).unwrap();
        wal.append(&wal::encode_trade(&trade(1, 30.0))).unwrap();
        drop(wal);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.replayed, 3);
        assert_eq!(rec.pending.len(), 2);
        assert_eq!(rec.pending[0].stock, StockId(1));
        assert_eq!(rec.pending[0].price, 30.0, "freshest value wins");
        assert_eq!(rec.pending[1].stock, StockId(2));
        assert_eq!(rec.tracker.unapplied(StockId(1)), 2);
        assert_eq!(rec.tracker.unapplied(StockId(2)), 1);
        assert_eq!(rec.next_lsn, 4);
        // The store itself is untouched: tail updates stay pending.
        assert_eq!(rec.store.record(StockId(1)).price(), 100.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_garbage_collects_and_newer_snapshot_wins() {
        let dir = tmp_dir("gc");
        let mut store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        let mut wal = Wal::create(&dir, FsyncPolicy::Off, 1 << 20, 1).unwrap();
        for i in 0..5u32 {
            wal.append(&wal::encode_trade(&trade(i % 2, f64::from(i))))
                .unwrap();
        }
        // Apply everything, rotate (so old segments are snapshot-covered)
        // and publish at LSN 5.
        for i in 0..5u32 {
            store.apply_update(&trade(i % 2, f64::from(i)));
        }
        wal.rotate().unwrap();
        publish(&dir, &store, &[0, 0], &[], 5).unwrap();
        drop(wal);
        // Old snapshot (lsn 0) and the covered segment are gone.
        let snaps = snapshot_files(&dir).unwrap();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, 5);
        let segs = wal::segment_files(&dir).unwrap();
        assert_eq!(segs.len(), 1, "covered segments collected: {segs:?}");
        assert_eq!(segs[0].0, 6);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot_lsn, 5);
        assert_eq!(rec.replayed, 0);
        assert_eq!(rec.store.record(StockId(0)).price(), 4.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Collection may leave a covered segment behind (its unlink failed,
    /// or did not survive a crash) while its successors are gone.
    /// Recovery starts at the segment covering the snapshot, so the
    /// leftover is neither read nor repaired and costs no record.
    #[test]
    fn a_leftover_covered_segment_costs_no_record() {
        let dir = tmp_dir("leftover");
        let store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        // Ten frames fill a segment: [1..=10], [11..=20], [21..=30].
        let ten = wal::SEGMENT_MAGIC.len() + 10 * (wal::FRAME_HEADER + wal::TRADE_PAYLOAD);
        let mut log = Wal::create(&dir, FsyncPolicy::Always, ten as u64, 1).unwrap();
        for i in 0..30u32 {
            log.append(&wal::encode_trade(&trade(i % 2, f64::from(i))))
                .unwrap();
        }
        drop(log);
        let segs = wal::segment_files(&dir).unwrap();
        assert_eq!(segs.iter().map(|s| s.0).collect::<Vec<_>>(), [1, 11, 21]);
        let leftover = std::fs::read(&segs[0].1).unwrap();
        publish(&dir, &store, &[0, 0], &[], 20).unwrap();
        assert_eq!(wal::segment_files(&dir).unwrap().len(), 1);
        std::fs::write(&segs[0].1, leftover).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(
            (rec.replayed, rec.truncated_bytes, rec.next_lsn),
            (10, 0, 31)
        );
        let rec = recover_applied(&dir).unwrap().unwrap();
        assert_eq!(
            (rec.replayed, rec.truncated_bytes, rec.next_lsn),
            (10, 0, 31)
        );
        assert_eq!(rec.store.record(StockId(1)).price(), 29.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A publish through the double syncs the snapshot file and the
    /// MANIFEST, so a power cut keeps both: recovery stands on them.
    #[test]
    fn a_power_cut_keeps_a_published_snapshot() {
        let dir = tmp_dir("power");
        let sim = crate::simdir::SimDir::default();
        let mut store = Store::with_synthetic_stocks(2);
        open(sim.dir(&dir), store.clone()).unwrap();
        store.apply_update(&trade(1, 42.0));
        publish(sim.dir(&dir), &store, &[0, 0], &[], 3).unwrap();
        sim.power_cut().unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot_lsn, 3);
        assert_eq!(rec.store.record(StockId(1)).price(), 42.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_falls_back_to_scan() {
        let dir = tmp_dir("badmanifest");
        let store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        std::fs::write(dir.join(MANIFEST_NAME), b"quts-manifest-v1\ngarbage\n").unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.store.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_one() {
        let dir = tmp_dir("badsnap");
        let mut store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        store.apply_update(&trade(0, 50.0));
        publish(&dir, &store, &[0, 0], &[], 3).unwrap();
        // `publish` collected the lsn-0 snapshot; re-create a baseline so
        // there is an older snapshot to fall back to, then corrupt the
        // newest one.
        let baseline = Store::with_synthetic_stocks(2);
        let bytes = encode_snapshot(&baseline, &[0, 0], &[], 0);
        std::fs::write(snapshot_path(&dir, 0), bytes).unwrap();
        let newest = snapshot_path(&dir, 3);
        let mut snap_bytes = std::fs::read(&newest).unwrap();
        let mid = snap_bytes.len() / 2;
        snap_bytes[mid] ^= 0xFF;
        std::fs::write(&newest, snap_bytes).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot_lsn, 0, "fell back past the corrupt snapshot");
        assert_eq!(rec.store.record(StockId(0)).price(), 100.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn term_is_monotone_and_survives_publish() {
        let dir = tmp_dir("term");
        let mut store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        assert_eq!(manifest_term(&dir), 0, "fresh dir starts at term 0");
        assert_eq!(bump_term(&dir, 3).unwrap(), 3);
        assert_eq!(manifest_term(&dir), 3);
        // Stale bumps are no-ops: terms never move backwards.
        assert_eq!(bump_term(&dir, 1).unwrap(), 3);
        assert_eq!(bump_term(&dir, 3).unwrap(), 3);
        assert_eq!(manifest_term(&dir), 3);
        // A snapshot publish re-renders the manifest but keeps the term.
        store.apply_update(&trade(0, 50.0));
        publish(&dir, &store, &[0, 0], &[], 7).unwrap();
        assert_eq!(manifest_term(&dir), 3);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot_lsn, 7);
        assert_eq!(bump_term(&dir, 4).unwrap(), 4);
        assert_eq!(manifest_term(&dir), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn termless_manifest_reads_as_term_zero() {
        let dir = tmp_dir("termless");
        let store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        // Rewrite the manifest without a term line, the pre-fencing
        // format: it must parse and report term 0.
        let snaps = snapshot_files(&dir).unwrap();
        let file = snaps[0]
            .1
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let mut text = format!("quts-manifest-v1\nsnapshot {file} 0\n");
        let crc = crc32(text.as_bytes());
        text.push_str(&format!("crc {crc:08x}\n"));
        std::fs::write(dir.join(MANIFEST_NAME), text).unwrap();
        assert_eq!(manifest_term(&dir), 0);
        assert!(recover(&dir).is_ok());
        // Corrupt manifest: term reads as 0, bump refuses.
        std::fs::write(dir.join(MANIFEST_NAME), b"garbage\n").unwrap();
        assert_eq!(manifest_term(&dir), 0);
        assert!(bump_term(&dir, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Manifests once listed every WAL segment; nothing read those
    /// lines. One that still has them parses as the same snapshot, LSN
    /// and term as one written today.
    #[test]
    fn a_manifest_with_the_old_segment_lines_still_parses() {
        let file = "snap-0000000000000007.db";
        let mut old = format!(
            "quts-manifest-v1\nsnapshot {file} 7\nterm 3\n\
             segment wal-0000000000000001.log\nsegment wal-0000000000000008.log\n"
        );
        let crc = crc32(old.as_bytes());
        old.push_str(&format!("crc {crc:08x}\n"));
        let today = render_manifest(file, 7, 3, 0);
        assert!(!today.contains("segment"));
        for text in [&old, &today] {
            let m = parse_manifest(text).expect("parses");
            assert_eq!((m.file.as_str(), m.lsn, m.term, m.floor), (file, 7, 3, 0));
        }
    }

    /// A term's floor is the LSN the directory's history reached at the
    /// bump. It round-trips through the MANIFEST, a manifest written
    /// before floors reads as floor 0, a snapshot publish keeps it, and
    /// a reset drops it with the term.
    #[test]
    fn the_term_floor_is_recorded_at_the_bump_and_kept_until_a_reset() {
        let file = "snap-0000000000000007.db";
        let m = parse_manifest(&render_manifest(file, 7, 3, 12)).expect("parses");
        assert_eq!((m.term, m.floor), (3, 12));
        let mut old = format!("quts-manifest-v1\nsnapshot {file} 7\nterm 3\n");
        let crc = crc32(old.as_bytes());
        old.push_str(&format!("crc {crc:08x}\n"));
        assert_eq!(parse_manifest(&old).map(|m| m.floor), Some(0));

        let dir = tmp_dir("floor");
        let store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        let mut append = |n: u32| {
            for i in 0..n {
                wal.append(&wal::encode_trade(&trade(i % 2, f64::from(i))))
                    .unwrap();
            }
        };
        append(5);
        assert_eq!(bump_term(&dir, 2).unwrap(), 2);
        assert_eq!(
            manifest_term_floor(&dir),
            (2, 5),
            "the WAL's tail at the bump"
        );
        assert_eq!(bump_term(&dir, 2).unwrap(), 2);
        assert_eq!(manifest_term_floor(&dir), (2, 5), "a stale bump keeps it");
        append(3);
        publish(&dir, &store, &[0, 0], &[], 8).unwrap();
        assert_eq!(manifest_term_floor(&dir), (2, 5), "a publish keeps it");
        // Sealed: the snapshot covers the whole log, so the next term's
        // floor is the snapshot's own LSN.
        assert_eq!(bump_term(&dir, 3).unwrap(), 3);
        assert_eq!(manifest_term_floor(&dir), (3, 8));
        drop(wal);
        reset_dir(&dir, &store, 2).unwrap();
        assert_eq!(manifest_term_floor(&dir), (0, 0), "a reset drops it");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_current_snapshot_is_the_manifests_pick_then_the_newest_that_decodes() {
        let dir = tmp_dir("current");
        let store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        publish(&dir, &store, &[0, 0], &[], 5).unwrap();
        // Every reader of the directory sees the same snapshot.
        let readers = |dir: &Path| {
            let shipped = current_bytes(dir).unwrap().0;
            let primary = recover(dir).unwrap().snapshot_lsn;
            let replica = recover_applied(dir).unwrap().unwrap().snapshot_lsn;
            assert_eq!((shipped, replica), (primary, primary));
            primary
        };
        // A newer file the MANIFEST never named (a crash between writing
        // it and swinging the MANIFEST) loses to the MANIFEST's pick.
        let newer = snapshot_path(&dir, 9);
        std::fs::write(&newer, encode_snapshot(&store, &[0, 0], &[], 9)).unwrap();
        assert_eq!(readers(&dir), 5);
        // A corrupt MANIFEST falls back to the newest decodable file.
        std::fs::write(dir.join(MANIFEST_NAME), b"quts-manifest-v1\ngarbage\n").unwrap();
        assert_eq!(readers(&dir), 9);
        // A torn newest file is skipped.
        let bytes = std::fs::read(&newer).unwrap();
        std::fs::write(&newer, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(readers(&dir), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_applied_applies_every_record_in_order() {
        let dir = tmp_dir("applied");
        assert!(
            recover_applied(&dir).unwrap().is_none(),
            "no MANIFEST, no state"
        );
        let store = Store::with_synthetic_stocks(2);
        publish(&dir, &store, &[1, 0], &[trade(0, 5.0)], 0).unwrap();
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        for price in [10.0, 20.0, 30.0] {
            wal.append(&wal::encode_trade(&trade(0, price))).unwrap();
        }
        drop(wal);
        let rec = recover_applied(&dir).unwrap().unwrap();
        assert_eq!((rec.next_lsn, rec.replayed, rec.snapshot_lsn), (4, 3, 0));
        assert!(rec.pending.is_empty());
        assert_eq!(rec.tracker.total_unapplied(), 0, "a replica owes nothing");
        // Every record, the snapshot's pending one first, is in the
        // history: 100 (baseline), 5, 10, 20, 30.
        let record = rec.store.record(StockId(0));
        assert_eq!(record.price(), 30.0);
        assert_eq!(record.history_len(), 5);
        assert_eq!(record.moving_average(4), (5.0 + 10.0 + 20.0 + 30.0) / 4.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_dir_leaves_only_the_given_store() {
        let dir = tmp_dir("reset");
        let store = Store::with_synthetic_stocks(2);
        init_dir(&dir, &store).unwrap();
        bump_term(&dir, 3).unwrap();
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        for i in 0..4u32 {
            wal.append(&wal::encode_trade(&trade(i % 2, f64::from(i))))
                .unwrap();
        }
        drop(wal);
        publish(&dir, &store, &[0, 0], &[], 9).unwrap();
        let mut baseline = Store::with_synthetic_stocks(2);
        baseline.apply_update(&trade(1, 42.0));
        reset_dir(&dir, &baseline, 2).unwrap();
        assert_eq!(snapshot_files(&dir).unwrap().len(), 1);
        assert!(wal::segment_files(&dir).unwrap().is_empty());
        assert_eq!(manifest_term(&dir), 0, "the term goes with the MANIFEST");
        let rec = recover_applied(&dir).unwrap().unwrap();
        assert_eq!((rec.snapshot_lsn, rec.next_lsn), (2, 3));
        assert_eq!(rec.store.record(StockId(1)).price(), 42.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_on_empty_dir_is_a_clean_error() {
        let dir = tmp_dir("empty");
        let err = recover(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
