//! Checksummed, length-prefixed append-only write-ahead log for the
//! update stream.
//!
//! The paper's QoD metric (`#uu`, unapplied updates) is only honest if
//! the update stream survives crashes: a restarted engine that lost its
//! queued updates would report fresh data (`#uu = 0`) that is actually
//! stale. This module provides the durable half of that guarantee:
//!
//! * **Framing** — every record is `[len u32][crc u32][lsn u64][payload]`
//!   (little-endian). The CRC-32 covers `lsn ‖ payload`, so a torn write,
//!   a bit flip, or a misframed length is detected, never trusted.
//! * **Segments** — the log is a sequence of `wal-<lsn016x>.log` files,
//!   each named by the first LSN it holds and opened with an 8-byte magic
//!   header. Rotation happens at a size threshold and at every snapshot,
//!   so old segments can be deleted once a snapshot covers them.
//! * **Replay** — [`walk`] reads the segments in LSN order, from the one
//!   covering the replay floor, and stops at the first bad frame (short
//!   read, CRC mismatch, bogus length, LSN discontinuity) without
//!   changing anything; [`replay_dir`] then **truncates** the bad tail —
//!   counted, never panicked over — because a torn tail is the expected
//!   result of a crash mid-append.
//! * **Fsync policy** — [`FsyncPolicy`] picks the durability/throughput
//!   trade: `Always` syncs every append (zero committed records lost),
//!   `EveryN(n)` bounds loss to the last `n` appends, `Off` leaves
//!   syncing to the OS (crash-consistent but lossy on power failure).
//! * **One seam** — everything quts-db does to a durability directory
//!   (the writer's segments, a snapshot's and the MANIFEST's publish,
//!   their collection, recovery's repairs, the `LOCK` file) goes through
//!   the crate-private `Fs` trait, reached through a [`Dir`]. `std::fs`
//!   is the production implementation; [`SimDir`](crate::simdir::SimDir)
//!   wraps it to fail, tear, corrupt or fill up a write, fail a sync, or
//!   cut the power, so crash-consistency tests produce at the file
//!   exactly the on-disk states a real crash leaves behind.

use crate::ops::Trade;
use crate::store::StockId;
use std::fmt::Debug;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every WAL segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"QUTSWAL1";

/// Frame header size: `len u32 + crc u32 + lsn u64`.
pub const FRAME_HEADER: usize = 16;

/// Upper bound on one record's payload; anything larger in a length
/// field is treated as corruption.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Bytes of one encoded [`Trade`] payload.
pub const TRADE_PAYLOAD: usize = 28;

// --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) ---

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn crc32_two(a: &[u8], b: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &byte in a.iter().chain(b) {
        c = CRC_TABLE[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- Trade payload codec ---

/// Encodes one trade as a fixed 28-byte WAL payload.
pub fn encode_trade(t: &Trade) -> [u8; TRADE_PAYLOAD] {
    let mut out = [0u8; TRADE_PAYLOAD];
    out[0..4].copy_from_slice(&t.stock.0.to_le_bytes());
    out[4..12].copy_from_slice(&t.price.to_bits().to_le_bytes());
    out[12..20].copy_from_slice(&t.volume.to_le_bytes());
    out[20..28].copy_from_slice(&t.trade_time_ms.to_le_bytes());
    out
}

/// Decodes a trade payload; `None` on a wrong-sized buffer.
pub fn decode_trade(b: &[u8]) -> Option<Trade> {
    if b.len() != TRADE_PAYLOAD {
        return None;
    }
    Some(Trade {
        stock: StockId(u32::from_le_bytes(b[0..4].try_into().ok()?)),
        price: f64::from_bits(u64::from_le_bytes(b[4..12].try_into().ok()?)),
        volume: u64::from_le_bytes(b[12..20].try_into().ok()?),
        trade_time_ms: u64::from_le_bytes(b[20..28].try_into().ok()?),
    })
}

// --- Framing ---

/// Encodes one frame (`len ‖ crc ‖ lsn ‖ payload`) into a fresh buffer.
pub fn encode_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let lsn_bytes = lsn.to_le_bytes();
    let crc = crc32_two(&lsn_bytes, payload);
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&lsn_bytes);
    out.extend_from_slice(payload);
    out
}

/// One frame decoded from a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The record payload.
    pub payload: Vec<u8>,
}

/// The bytes at the decode offset are torn or corrupt: everything from
/// that offset on must be truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptTail;

/// Decodes the frame starting at `buf[offset..]`.
///
/// Returns `Ok(None)` at a clean end of buffer (`offset == buf.len()`);
/// `Err(CorruptTail)` means the bytes from `offset` on are torn or
/// corrupt and must be truncated.
pub fn decode_frame(buf: &[u8], offset: usize) -> Result<Option<(Frame, usize)>, CorruptTail> {
    let rest = &buf[offset..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < FRAME_HEADER {
        return Err(CorruptTail); // short header: torn tail
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD || rest.len() < FRAME_HEADER + len {
        return Err(CorruptTail); // bogus length or short payload
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let lsn_bytes: [u8; 8] = rest[8..16].try_into().unwrap();
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    if crc32_two(&lsn_bytes, payload) != crc {
        return Err(CorruptTail); // bit rot or a misframed record
    }
    Ok(Some((
        Frame {
            lsn: u64::from_le_bytes(lsn_bytes),
            payload: payload.to_vec(),
        },
        offset + FRAME_HEADER + len,
    )))
}

// --- Fsync policy ---

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: a crash loses no appended record.
    Always,
    /// `fsync` every `n` appends: a crash loses at most the last `n`
    /// unsynced records.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS flushes when it pleases. Process
    /// crashes lose nothing (the page cache survives), power loss can
    /// lose the unflushed tail.
    Off,
}

// --- Segment bookkeeping ---

/// Parses a segment file name, returning the first LSN the segment
/// holds. A segment is named `wal-<lsn016x>.log`, and no other name
/// reads as one.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// The name of the segment starting at `first_lsn`.
fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{first_lsn:016x}.log"))
}

// --- The filesystem seam ---

/// Everything quts-db does to a durability directory and its files:
/// one seam. The default methods are the production implementation,
/// `std::fs` ([`StdFs`]); the test double
/// ([`SimDir`](crate::simdir::SimDir)) decorates it to break or watch
/// the calls it counts. A call on a file names the file's path too.
/// Reads (listing a directory, reading a file) stay plain `std::fs`.
pub(crate) trait Fs: Debug + Send + Sync {
    /// Creates the directory `dir`; its parent exists.
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir(dir)
    }

    /// Creates (truncating) the file at `path`, open for writing.
    fn create(&self, path: &Path) -> io::Result<File> {
        File::create(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    /// Cuts the file at `path` to `len` bytes; returns it open for
    /// writing, so the cut can be synced.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<File> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        Ok(file)
    }

    fn write(&self, file: &mut File, _path: &Path, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }

    /// Makes the file's bytes and length durable.
    fn sync_data(&self, file: &mut File, _path: &Path) -> io::Result<()> {
        file.sync_data()
    }

    /// Syncs `dir` itself, making the names created, renamed or removed
    /// in it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// The production [`Fs`]: `std::fs`.
#[derive(Debug)]
pub(crate) struct StdFs;

impl Fs for StdFs {}

/// A durability directory and the filesystem seam every change to it
/// goes through: the WAL writer's, a snapshot's publish, recovery's
/// repairs. A path converts to one over `std::fs`;
/// [`SimDir::dir`](crate::simdir::SimDir::dir) makes one over the test
/// double. Clones share the seam.
#[derive(Debug, Clone)]
pub struct Dir {
    pub(crate) path: PathBuf,
    pub(crate) fs: Arc<dyn Fs>,
}

impl<P: AsRef<Path>> From<P> for Dir {
    fn from(path: P) -> Dir {
        let (path, fs) = (path.as_ref().to_path_buf(), Arc::new(StdFs));
        Dir { path, fs }
    }
}

impl Dir {
    /// Creates the directory and its missing parents, syncing each new
    /// directory's parent so the new name survives a crash.
    pub(crate) fn create(&self) -> io::Result<()> {
        let missing = self.path.ancestors().filter(|d| !d.as_os_str().is_empty());
        let missing: Vec<&Path> = missing.take_while(|d| !d.is_dir()).collect();
        for dir in missing.into_iter().rev() {
            let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
            match self.fs.create_dir(dir) {
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => {}
                made => made.and_then(|()| self.fs.sync_dir(parent.unwrap_or(Path::new("."))))?,
            }
        }
        Ok(())
    }

    /// Creates (truncating) `path`, writes `bytes` and syncs the file.
    pub(crate) fn write_synced(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.fs.create(path)?;
        self.fs.write(&mut file, path, bytes)?;
        self.fs.sync_data(&mut file, path)
    }

    /// Creates (truncating) the segment starting at `first_lsn`, writes
    /// its magic header and syncs the directory, so the new name
    /// survives a crash.
    fn create_segment(&self, first_lsn: u64) -> io::Result<(PathBuf, File)> {
        let path = segment_path(&self.path, first_lsn);
        let mut file = self.fs.create(&path)?;
        self.fs.write(&mut file, &path, SEGMENT_MAGIC)?;
        self.fs.sync_dir(&self.path)?;
        Ok((path, file))
    }
}

/// The files in `dir` whose names `lsn` reads an LSN from, sorted by it.
pub(crate) fn listed(dir: &Path, lsn: fn(&str) -> Option<u64>) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(lsn) = lsn(&entry.file_name().to_string_lossy()) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// WAL segment files in `dir`, sorted by their first LSN.
pub fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    listed(dir, parse_segment_name)
}

// --- Writer ---

/// Appends accumulate in this user-space buffer and hit the file in
/// batches — one `write` syscall per append would dominate the cost of
/// the `Off` policy. Sync points always flush first, so the durability
/// guarantees are unchanged; only the *unsynced* window moves from the
/// page cache into the process.
const FLUSH_BYTES: usize = 64 * 1024;

/// The append-only writer over the active segment.
///
/// A write or sync that fails leaves the segment's tail unknown, so the
/// writer never retries it: its owner drops the writer and recovers
/// (fail-stop).
#[derive(Debug)]
pub struct Wal {
    dir: Dir,
    /// The active segment.
    path: PathBuf,
    file: File,
    /// Frames not yet written to the file (see [`FLUSH_BYTES`]).
    buf: Vec<u8>,
    /// Bytes written to the active segment file (including magic header).
    file_len: u64,
    next_lsn: u64,
    /// See [`Wal::unwritten_lsn`].
    unwritten_lsn: u64,
    fsync: FsyncPolicy,
    unsynced_appends: u32,
    segment_bytes: u64,
    /// Count of `sync_data` calls issued over this writer's lifetime
    /// (survives rotation; the group-commit metrics read it).
    fsyncs: u64,
}

impl Drop for Wal {
    /// Best-effort flush so a dropped writer leaves every appended frame
    /// visible to [`replay_dir`] — in-process restart recovery re-reads
    /// the directory and must see what was logged.
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

impl Wal {
    /// Opens a fresh active segment starting at `next_lsn` (LSNs are
    /// 1-based; 0 means "nothing logged yet") in `dir`, a path or a
    /// [`Dir`]. An existing file of the same name is truncated — safe
    /// because recovery already replayed any valid records it held (they
    /// would have advanced `next_lsn`). Every segment this writer
    /// creates, here or on rotation, has its name synced into `dir`
    /// before the first append lands in it.
    pub fn create(
        dir: impl Into<Dir>,
        fsync: FsyncPolicy,
        segment_bytes: u64,
        next_lsn: u64,
    ) -> io::Result<Wal> {
        let dir = dir.into();
        dir.create()?;
        let (path, file) = dir.create_segment(next_lsn)?;
        Ok(Wal {
            dir,
            path,
            file,
            buf: Vec::with_capacity(FLUSH_BYTES),
            file_len: SEGMENT_MAGIC.len() as u64,
            next_lsn,
            unwritten_lsn: next_lsn,
            fsync,
            unsynced_appends: 0,
            segment_bytes,
            fsyncs: 0,
        })
    }

    /// Writes the buffered frames through to the file. The buffer empties
    /// even when the write fails, so no byte is written twice.
    fn flush_buf(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.dir.fs.write(&mut self.file, &self.path, &self.buf);
        if written.is_ok() {
            self.file_len += self.buf.len() as u64;
            self.unwritten_lsn = self.next_lsn;
        }
        self.buf.clear();
        written
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The first LSN whose frame was not written to the file: every
    /// frame below it was (synced or not); from it on, frames wait in
    /// the buffer or were dropped with a failed write.
    pub fn unwritten_lsn(&self) -> u64 {
        self.unwritten_lsn
    }

    /// Appends one record, applying the fsync policy; returns its LSN.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let lsn = self.append_deferred(payload)?;
        self.commit_group()?;
        Ok(lsn)
    }

    /// Appends one record **without** applying the fsync policy —
    /// the group-commit half of [`Wal::append`]. Frames accumulate in
    /// the user-space buffer (spilling to the file past [`FLUSH_BYTES`])
    /// until [`Wal::commit_group`] or [`Wal::sync`] closes the group.
    /// Byte-for-byte identical on disk to the same sequence of plain
    /// appends; only the sync *points* move.
    pub fn append_deferred(&mut self, payload: &[u8]) -> io::Result<u64> {
        // Rotate once the active segment (file + buffer) is full.
        if self.file_len + self.buf.len() as u64 >= self.segment_bytes {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        // Encode straight into the buffer — this is the engine's
        // per-update hot path, one heap allocation per append shows up.
        let lsn_bytes = lsn.to_le_bytes();
        let crc = crc32_two(&lsn_bytes, payload);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(&lsn_bytes);
        self.buf.extend_from_slice(payload);
        self.next_lsn += 1;
        self.unsynced_appends += 1;
        if self.buf.len() >= FLUSH_BYTES {
            self.flush_buf()?;
        }
        Ok(lsn)
    }

    /// Applies the fsync policy once, treating everything deferred since
    /// the last sync point as a single commit unit: `Always` syncs the
    /// whole group with one `fsync`, `EveryN(n)` syncs when `n` or more
    /// appends are pending, `Off` never syncs. This is the group-commit
    /// leader's closing step — one policy decision (and at most one
    /// fsync) per group instead of one per record.
    pub fn commit_group(&mut self) -> io::Result<()> {
        match self.fsync {
            FsyncPolicy::Always if self.unsynced_appends > 0 => self.sync(),
            FsyncPolicy::EveryN(n) if self.unsynced_appends >= n.max(1) => self.sync(),
            _ => Ok(()),
        }
    }

    /// Forces everything appended so far to stable storage; a no-op when
    /// every append is already covered by a sync. (A new segment's magic
    /// header is synced with its first record: a segment cut before any
    /// record replays as a clean end.)
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced_appends == 0 {
            return Ok(());
        }
        self.flush_buf()?;
        self.dir.fs.sync_data(&mut self.file, &self.path)?;
        self.fsyncs += 1;
        self.unsynced_appends = 0;
        Ok(())
    }

    /// Number of `fsync` (`sync_data`) calls this writer has issued.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// Appends not yet covered by a sync point.
    pub fn unsynced_appends(&self) -> u32 {
        self.unsynced_appends
    }

    /// Starts a new segment at the current `next_lsn`. The old segment's
    /// unsynced appends are synced first so rotation never races
    /// durability. On an error the writer may have left a segment at
    /// `next_lsn` behind while it still writes the old one: appending on
    /// would put records past that segment's name, which replay reads as
    /// a gap. Fail-stop.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        (self.path, self.file) = self.dir.create_segment(self.next_lsn)?;
        self.file_len = SEGMENT_MAGIC.len() as u64;
        self.unsynced_appends = 0;
        Ok(())
    }
}

// --- Replay ---

/// A read-only walk of a WAL directory (see [`walk`]).
#[derive(Debug, Clone)]
pub struct Walk {
    /// Valid records with LSN > the walk's floor, in LSN order.
    pub records: Vec<Frame>,
    /// The segments from the one the walk started at on, sorted by
    /// their first LSN.
    pub segments: Vec<(u64, PathBuf)>,
    /// Where the log breaks, if it does: the index into `segments` of
    /// the segment holding the first bad byte, and how many of its
    /// bytes precede it. Nothing from there on is reachable.
    pub broken: Option<(usize, u64)>,
}

/// Walks the WAL in `dir` without changing it, collecting the records
/// with `lsn > after_lsn`.
///
/// The walk starts at the segment covering `after_lsn + 1` (the last
/// one starting at or before it, else the first): an older segment
/// holds only covered records — one a snapshot's collection left
/// behind — so it is neither read nor judged. The first bad frame —
/// short read, CRC mismatch, bogus length, LSN discontinuity, bad
/// segment magic, a gap between segments — ends the walk. Only real IO
/// failures surface as `Err`, never log contents.
pub fn walk(dir: &Path, after_lsn: u64) -> io::Result<Walk> {
    let mut segments = segment_files(dir)?;
    let covering = segments.iter().rposition(|s| s.0 <= after_lsn + 1);
    segments.drain(..covering.unwrap_or(0));
    let (mut records, mut broken, mut expected_next) = (Vec::new(), None, None::<u64>);
    'segments: for (at, (first_lsn, path)) in segments.iter().enumerate() {
        let buf = std::fs::read(path)?;
        // Bad or short magic, or a gap between segments (records lost
        // wholesale): the whole segment is untrustworthy.
        if !buf.starts_with(SEGMENT_MAGIC) || expected_next.is_some_and(|e| e != *first_lsn) {
            broken = Some((at, 0));
            break;
        }
        let mut offset = SEGMENT_MAGIC.len();
        loop {
            match decode_frame(&buf, offset) {
                Ok(None) => break,
                // The first record of the first readable segment must
                // match the segment's name.
                Ok(Some((frame, next))) if frame.lsn == expected_next.unwrap_or(*first_lsn) => {
                    expected_next = Some(frame.lsn + 1);
                    if frame.lsn > after_lsn {
                        records.push(frame);
                    }
                    offset = next;
                }
                // A bad frame, or an LSN discontinuity.
                Ok(Some(_)) | Err(CorruptTail) => {
                    broken = Some((at, offset as u64));
                    break 'segments;
                }
            }
        }
    }
    Ok(Walk {
        records,
        segments,
        broken,
    })
}

/// The outcome of replaying the log directory.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Valid records with LSN > the replay floor, in LSN order.
    pub records: Vec<Frame>,
    /// Bytes discarded as torn or corrupt (truncated from segment files,
    /// plus whole later segments abandoned after a mid-log break).
    pub truncated_bytes: u64,
}

/// Replays the WAL in `dir`, a path or a [`Dir`]: [`walk`]s it from
/// the segment covering `after_lsn + 1`, returning the records with
/// `lsn > after_lsn`, and repairs the break the walk found, if any —
/// the segment holding it is truncated there, every later segment is
/// deleted, and every discarded byte is counted. Both repairs go
/// through `dir`'s seam and are synced (the file, then the directory)
/// before replay returns. Replay **never panics** on log contents;
/// only real IO failures (open, read, repair) surface as `Err`.
pub fn replay_dir(dir: impl Into<Dir>, after_lsn: u64) -> io::Result<Replay> {
    let dir = dir.into();
    let walk = walk(&dir.path, after_lsn)?;
    let mut truncated_bytes = 0;
    if let Some((at, keep)) = walk.broken {
        let (_, path) = &walk.segments[at];
        truncated_bytes += std::fs::metadata(path)?.len() - keep;
        let mut cut = dir.fs.truncate(path, keep)?;
        dir.fs.sync_data(&mut cut, path)?;
        // Everything after a break is unreachable history: discard.
        for (_, path) in &walk.segments[at + 1..] {
            truncated_bytes += std::fs::metadata(path)?.len();
            dir.fs.remove_file(path)?;
        }
        // Like the cut, the unlinks must survive a power loss: a torn
        // tail or a stale segment coming back would break the next
        // replay before the records a writer adds here.
        dir.fs.sync_dir(&dir.path)?;
    }
    Ok(Replay {
        records: walk.records,
        truncated_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simdir::{SimDir, WriteFault};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quts-wal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn trade(stock: u32, price: f64) -> Trade {
        Trade {
            stock: StockId(stock),
            price,
            volume: 7,
            trade_time_ms: 42,
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn trade_codec_roundtrip() {
        let t = trade(3, 101.25);
        assert_eq!(decode_trade(&encode_trade(&t)), Some(t));
        assert_eq!(decode_trade(&[0u8; 27]), None);
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::create(&dir, FsyncPolicy::Off, 1 << 20, 1).unwrap();
        for i in 0..10u32 {
            let lsn = wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
            assert_eq!(lsn, u64::from(i) + 1);
        }
        drop(wal);
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 10);
        for (i, frame) in replay.records.iter().enumerate() {
            assert_eq!(frame.lsn, i as u64 + 1);
            let t = decode_trade(&frame.payload).unwrap();
            assert_eq!(t.stock, StockId(i as u32));
        }
        // Replay floor: only newer records.
        let tail = replay_dir(&dir, 7).unwrap();
        assert_eq!(tail.records.len(), 3);
        assert_eq!(tail.records[0].lsn, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bytes of one encoded trade frame.
    const TRADE_FRAME: usize = FRAME_HEADER + TRADE_PAYLOAD;

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        // Write 1 is the magic header; under `Off` the three frames go
        // out in one write at the drop, torn 9 bytes into the third.
        let sim = SimDir::default().fault_write(2, WriteFault::Tear(2 * TRADE_FRAME + 9));
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Off, 1 << 20, 1).unwrap();
        wal.append(&encode_trade(&trade(0, 1.0))).unwrap();
        wal.append(&encode_trade(&trade(1, 2.0))).unwrap();
        wal.append(&encode_trade(&trade(2, 3.0))).unwrap();
        drop(wal);
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.truncated_bytes, 9);
        // Truncation is persistent: a second replay sees a clean log.
        let again = replay_dir(&dir, 0).unwrap();
        assert_eq!(again.records.len(), 2);
        assert_eq!(again.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_cuts_the_log_there() {
        let dir = tmp_dir("corrupt");
        // The three frames go out in one write at the drop, the second
        // frame's last byte flipped.
        let flip = WriteFault::Corrupt(2 * TRADE_FRAME - 1);
        let sim = SimDir::default().fault_write(2, flip);
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Off, 1 << 20, 1).unwrap();
        wal.append(&encode_trade(&trade(0, 1.0))).unwrap();
        wal.append(&encode_trade(&trade(1, 2.0))).unwrap();
        wal.append(&encode_trade(&trade(2, 3.0))).unwrap();
        drop(wal);
        let replay = replay_dir(&dir, 0).unwrap();
        // Only the prefix before the corruption survives; the valid
        // record *after* it is unreachable (no trustworthy framing).
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].lsn, 1);
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmp_dir("rotate");
        // Tiny segment budget: every append rotates.
        let mut wal = Wal::create(&dir, FsyncPolicy::Off, 64, 1).unwrap();
        for i in 0..6u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        drop(wal);
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() > 1, "rotation must create segments");
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.records.len(), 6);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_fsync_bounds_the_unsynced_window() {
        let dir = tmp_dir("everyn");
        let sim = SimDir::default();
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::EveryN(4), 1 << 20, 1).unwrap();
        for i in 0..10u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        // Simulated power loss: unsynced appends (9, 10) vanish.
        drop(wal);
        sim.power_cut().unwrap();
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.records.len(), 8, "syncs at appends 4 and 8");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_fsync_loses_nothing_to_power_loss() {
        let dir = tmp_dir("always");
        let sim = SimDir::default();
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Always, 1 << 20, 1).unwrap();
        for i in 0..5u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        drop(wal);
        sim.power_cut().unwrap();
        assert_eq!(replay_dir(&dir, 0).unwrap().records.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_power_cut_before_a_segments_first_record_replays_clean() {
        let dir = tmp_dir("cut-empty");
        let sim = SimDir::default();
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Always, 1 << 20, 1).unwrap();
        for i in 0..3u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        // Everything is synced: the rotation syncs nothing, and the new
        // segment's magic header waits for its first record's sync.
        wal.rotate().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.fsync_count(), 3, "one per record, none for nothing");
        drop(wal);
        sim.power_cut().unwrap();
        let empty = segment_path(&dir, 4);
        assert_eq!(std::fs::metadata(&empty).unwrap().len(), 0, "header lost");
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!((replay.records.len(), replay.truncated_bytes), (3, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tagged_segment_name_is_not_a_segment() {
        let dir = tmp_dir("tagged");
        let mut wal = Wal::create(&dir, FsyncPolicy::Off, 1 << 20, 1).unwrap();
        wal.append(&encode_trade(&trade(0, 1.0))).unwrap();
        drop(wal);
        let tagged = dir.join(format!("wal-shard3-{:016x}.log", 1));
        std::fs::rename(segment_path(&dir, 1), &tagged).unwrap();
        assert!(segment_files(&dir).unwrap().is_empty());
        assert!(replay_dir(&dir, 0).unwrap().records.is_empty());
        // A writer renames nothing.
        drop(Wal::create(&dir, FsyncPolicy::Off, 1 << 20, 1).unwrap());
        assert!(tagged.exists());
        assert_eq!(segment_files(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_append_is_byte_identical_to_singles() {
        let dir_a = tmp_dir("batch-a");
        let dir_b = tmp_dir("batch-b");
        let payloads: Vec<[u8; TRADE_PAYLOAD]> = (0..9u32)
            .map(|i| encode_trade(&trade(i, i as f64)))
            .collect();
        let mut a = Wal::create(&dir_a, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        for p in &payloads {
            a.append(p).unwrap();
        }
        drop(a);
        let mut b = Wal::create(&dir_b, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        let lsns: Vec<u64> = payloads
            .iter()
            .map(|p| b.append_deferred(p).unwrap())
            .collect();
        b.commit_group().unwrap();
        assert_eq!(lsns, (1..=9).collect::<Vec<u64>>());
        assert_eq!(b.fsync_count(), 1, "one fsync covers the whole group");
        drop(b);
        let seg_a = segment_files(&dir_a).unwrap();
        let seg_b = segment_files(&dir_b).unwrap();
        assert_eq!(seg_a.len(), seg_b.len());
        for ((_, pa), (_, pb)) in seg_a.iter().zip(&seg_b) {
            assert_eq!(
                std::fs::read(pa).unwrap(),
                std::fs::read(pb).unwrap(),
                "group commit must not change the on-disk format"
            );
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn deferred_appends_are_invisible_to_power_loss_until_committed() {
        let dir = tmp_dir("deferred");
        let sim = SimDir::default();
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Always, 1 << 20, 1).unwrap();
        wal.append(&encode_trade(&trade(0, 1.0))).unwrap();
        let synced_fsyncs = wal.fsync_count();
        for i in 1..5u32 {
            wal.append_deferred(&encode_trade(&trade(i, i as f64)))
                .unwrap();
        }
        assert_eq!(wal.unsynced_appends(), 4);
        assert_eq!(wal.fsync_count(), synced_fsyncs, "no sync mid-group");
        // Power loss before the group's fsync: the deferred tail is gone,
        // the previously committed prefix survives.
        drop(wal);
        sim.power_cut().unwrap();
        assert_eq!(replay_dir(&dir, 0).unwrap().records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_leaves_its_frames_unwritten() {
        let dir = tmp_dir("unwritten");
        let sim = SimDir::default().fault_write(3, WriteFault::Fail);
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Off, 1 << 20, 1).unwrap();
        assert_eq!(wal.unwritten_lsn(), 1);
        for i in 0..3u32 {
            wal.append(&encode_trade(&trade(i, 1.0))).unwrap();
        }
        assert_eq!(wal.unwritten_lsn(), 1, "appends wait in the buffer");
        wal.sync().unwrap();
        assert_eq!(wal.unwritten_lsn(), 4, "write 2 carried LSNs 1..=3");
        wal.append(&encode_trade(&trade(3, 1.0))).unwrap();
        assert!(wal.sync().is_err());
        assert_eq!(wal.unwritten_lsn(), 4, "write 3 failed: LSN 4 never landed");
        drop(wal);
        assert_eq!(replay_dir(&dir, 0).unwrap().records.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_group_respects_every_n_policy() {
        let dir = tmp_dir("group-everyn");
        let mut wal = Wal::create(&dir, FsyncPolicy::EveryN(8), 1 << 20, 1).unwrap();
        // A 3-record group: below the threshold, no sync.
        for i in 0..3u32 {
            wal.append_deferred(&encode_trade(&trade(i, 0.0))).unwrap();
        }
        wal.commit_group().unwrap();
        assert_eq!(wal.fsync_count(), 0);
        // Five more crosses the threshold: the group boundary syncs.
        for i in 3..8u32 {
            wal.append_deferred(&encode_trade(&trade(i, 0.0))).unwrap();
        }
        wal.commit_group().unwrap();
        assert_eq!(wal.fsync_count(), 1);
        assert_eq!(wal.unsynced_appends(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_gap_discards_later_history() {
        let dir = tmp_dir("gap");
        let mut wal = Wal::create(&dir, FsyncPolicy::Off, 64, 1).unwrap();
        for i in 0..6u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        drop(wal);
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() >= 3);
        // Delete a middle segment: replay keeps the prefix, abandons the
        // unreachable suffix, and never panics.
        std::fs::remove_file(&segs[1].1).unwrap();
        let replay = replay_dir(&dir, 0).unwrap();
        assert!(replay.records.len() < 6);
        assert!(replay.truncated_bytes > 0);
        assert!(replay
            .records
            .iter()
            .zip(1u64..)
            .all(|(f, want)| f.lsn == want));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::simdir::{SimDir, WriteFault};
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quts-wal-prop-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Frame encode/decode is a lossless roundtrip for any payload.
        #[test]
        fn frame_roundtrip(
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
            lsn in proptest::num::u64::ANY,
        ) {
            let frame = encode_frame(lsn, &payload);
            let (decoded, next) = decode_frame(&frame, 0).unwrap().unwrap();
            prop_assert_eq!(decoded.lsn, lsn);
            prop_assert_eq!(decoded.payload, payload);
            prop_assert_eq!(next, frame.len());
        }

        /// Trade encode/decode is a lossless roundtrip (bit-exact price).
        #[test]
        fn trade_roundtrip(
            stock in proptest::num::u32::ANY,
            bits in proptest::num::u64::ANY,
            volume in proptest::num::u64::ANY,
            time in proptest::num::u64::ANY,
        ) {
            let t = Trade {
                stock: StockId(stock),
                price: f64::from_bits(bits),
                volume,
                trade_time_ms: time,
            };
            let back = decode_trade(&encode_trade(&t)).unwrap();
            prop_assert_eq!(back.stock, t.stock);
            prop_assert_eq!(back.price.to_bits(), t.price.to_bits());
            prop_assert_eq!(back.volume, t.volume);
            prop_assert_eq!(back.trade_time_ms, t.trade_time_ms);
        }

        /// Flipping any byte anywhere in the log is always detected:
        /// replay never panics and yields an unmodified *prefix* of the
        /// original records — corrupted data is never served as valid.
        #[test]
        fn arbitrary_corruption_is_detected(
            n_records in 1usize..12,
            seed in proptest::num::u64::ANY,
            flip_pos in proptest::num::u64::ANY,
            flip_xor in 1u8..255,
        ) {
            let dir = tmp_dir(&format!("{seed:x}-{n_records}"));
            let mut wal = Wal::create(&dir, FsyncPolicy::Off, 1 << 20, 1).unwrap();
            let mut originals = Vec::new();
            for i in 0..n_records {
                let t = Trade {
                    stock: StockId(i as u32),
                    price: (seed ^ i as u64) as f64,
                    volume: i as u64,
                    trade_time_ms: seed.wrapping_add(i as u64),
                };
                originals.push(t);
                wal.append(&encode_trade(&t)).unwrap();
            }
            drop(wal);

            // Flip one byte at an arbitrary offset in the segment file.
            let segs = segment_files(&dir).unwrap();
            let path = &segs[0].1;
            let mut bytes = std::fs::read(path).unwrap();
            let pos = (flip_pos % bytes.len() as u64) as usize;
            bytes[pos] ^= flip_xor;
            std::fs::write(path, &bytes).unwrap();

            let replay = replay_dir(&dir, 0).unwrap(); // must not panic
            // Everything recovered is a byte-exact prefix of the
            // original stream; the flipped byte's record (and anything
            // after it) never survives as altered data.
            prop_assert!(replay.records.len() < n_records
                || replay.records.iter().zip(&originals).all(|(f, t)| {
                    decode_trade(&f.payload).map(|d| d.price.to_bits() == t.price.to_bits())
                        == Some(true)
                }));
            for (i, frame) in replay.records.iter().enumerate() {
                prop_assert_eq!(frame.lsn, i as u64 + 1);
                let d = decode_trade(&frame.payload).unwrap();
                prop_assert_eq!(d.stock, originals[i].stock);
                prop_assert_eq!(d.price.to_bits(), originals[i].price.to_bits());
                prop_assert_eq!(d.volume, originals[i].volume);
            }
            prop_assert!(replay.records.len() < n_records, "corruption within the\
                 record stream must cut it short (pos {pos} of {})", bytes.len());
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// Group commit under arbitrary crash points: any number of
        /// whole groups committed (acked) followed by a crash inside the
        /// next group — power loss, a torn frame, or silent corruption —
        /// always recovers a strict gap-free prefix that covers every
        /// acked LSN. No acked record is ever lost, no group is ever
        /// recovered torn or reordered.
        #[test]
        fn group_commit_crash_recovers_every_acked_lsn(
            group_sizes in proptest::collection::vec(1usize..9, 1..8),
            partial in 0usize..9,
            crash_kind in 0u8..3,
            torn_keep in 1usize..20,
            seed in proptest::num::u64::ANY,
        ) {
            let dir = tmp_dir(&format!("gc-{seed:x}-{}-{partial}", group_sizes.len()));
            // Write 1 is the magic header and each committed group one
            // more, so the crashed group goes out in the write after.
            let partial = partial.min(7);
            let crash_write = group_sizes.len() as u64 + 2;
            let partial_bytes = partial * (FRAME_HEADER + TRADE_PAYLOAD);
            let sim = match crash_kind {
                // Power loss: everything unsynced vanishes.
                0 => SimDir::default(),
                // Crash mid-write: a torn frame ends the segment.
                1 => SimDir::default()
                    .fault_write(crash_write, WriteFault::Tear(partial_bytes + torn_keep)),
                // Media corruption inside the unsynced tail.
                _ => SimDir::default()
                    .fault_write(crash_write, WriteFault::Corrupt(usize::MAX)),
            };
            let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Always, 1 << 20, 1).unwrap();
            let mk = |i: u64| encode_trade(&Trade {
                stock: StockId(i as u32),
                price: (seed ^ i) as f64,
                volume: i,
                trade_time_ms: seed.wrapping_add(i),
            });
            // Commit every full group: each ends with one covering
            // fsync, after which the group counts as acked.
            let mut acked_lsn = 0u64;
            let mut next = 1u64;
            for &size in &group_sizes {
                for _ in 0..size {
                    prop_assert_eq!(wal.append_deferred(&mk(next)).unwrap(), next);
                    next += 1;
                }
                wal.commit_group().unwrap();
                acked_lsn = next - 1;
            }
            // Start one more group but crash before its commit fsync.
            for k in 0..=partial as u64 {
                wal.append_deferred(&mk(next + k)).unwrap();
            }
            drop(wal);
            if crash_kind == 0 {
                sim.power_cut().unwrap();
            }

            let replay = replay_dir(&dir, 0).unwrap(); // never panics
            // Strict prefix: gap-free LSNs from 1, payloads intact.
            for (i, frame) in replay.records.iter().enumerate() {
                let want = i as u64 + 1;
                prop_assert_eq!(frame.lsn, want);
                let d = decode_trade(&frame.payload).unwrap();
                prop_assert_eq!(d.volume, want);
                prop_assert_eq!(d.price.to_bits(), ((seed ^ want) as f64).to_bits());
            }
            // Every acked group survives in full.
            prop_assert!(
                replay.records.len() as u64 >= acked_lsn,
                "acked through LSN {acked_lsn} but only {} recovered",
                replay.records.len()
            );
            // Nothing past the unacked group's end is ever invented.
            prop_assert!(replay.records.len() as u64 <= acked_lsn + partial as u64 + 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
