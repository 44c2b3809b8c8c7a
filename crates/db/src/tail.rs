//! Read-only, resumable tailing of a live WAL directory.
//!
//! [`replay_dir`](crate::wal::replay_dir) is a *recovery* primitive: it
//! repairs the log it reads, truncating torn tails and deleting
//! unreachable segments. A replication shipper must never do that — the
//! primary is still appending, and a half-written frame at the end of
//! the active segment is not damage, it is simply not finished yet.
//! [`WalTailer`] is the streaming counterpart: it reads complete,
//! CRC-valid frames in LSN order, **waits** on a torn or incomplete
//! tail instead of truncating it, follows segment rotation, and can
//! resume from any LSN still covered by the on-disk segments.
//!
//! The tailer only ever sees what has reached the file (the engine's
//! user-space append buffer is invisible until a flush or sync), so a
//! shipped LSN is always at least page-cache durable on the primary —
//! replication never runs ahead of the primary's own recovery horizon.

use crate::wal::{decode_frame, segment_files, CorruptTail, Frame, SEGMENT_MAGIC};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::PathBuf;

/// One round of tail progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailPoll {
    /// Complete frames that became visible since the last poll, in
    /// contiguous LSN order (possibly empty: caught up, or the next
    /// frame is still being written).
    Frames(Vec<Frame>),
    /// The next expected LSN is no longer covered by any on-disk
    /// segment — snapshot GC collected it. The consumer must
    /// re-bootstrap from a snapshot; this tailer cannot make progress.
    Gap {
        /// The LSN the tailer needed.
        wanted: u64,
        /// The first LSN still available on disk (`None`: no segments).
        oldest_available: Option<u64>,
    },
}

/// Incremental reader over a (possibly live) WAL directory.
#[derive(Debug)]
pub struct WalTailer {
    dir: PathBuf,
    /// LSN of the next frame to emit.
    next_lsn: u64,
    /// The segment currently being read, once positioned: its first LSN
    /// and its file, held open until the tailer moves on. Snapshot GC
    /// may unlink the segment meanwhile; the open inode stays readable,
    /// so a tailer still finishes a segment it has started.
    segment: Option<(u64, File)>,
    /// Byte offset into that segment (past the magic header).
    offset: u64,
}

impl WalTailer {
    /// A tailer over `dir` that will emit frames with `lsn > after_lsn`.
    pub fn new(dir: impl Into<PathBuf>, after_lsn: u64) -> WalTailer {
        WalTailer {
            dir: dir.into(),
            next_lsn: after_lsn + 1,
            segment: None,
            offset: 0,
        }
    }

    /// The LSN the next emitted frame will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Reads whatever complete frames are newly visible, up to
    /// `max_frames` per call. Never writes, truncates or deletes
    /// anything; an incomplete or corrupt tail simply stops the read
    /// (it will be retried on the next poll).
    ///
    /// # Errors
    /// Only real IO failures (directory unreadable, segment vanished
    /// mid-read) surface as `Err`; log *content* problems never do.
    pub fn poll(&mut self, max_frames: usize) -> io::Result<TailPoll> {
        let mut out = Vec::new();
        // Set once a read has followed the sight of the held segment's
        // collection: what that read misses does not exist.
        let mut drained = false;
        loop {
            if out.len() >= max_frames {
                return Ok(TailPoll::Frames(out));
            }
            // (Re-)position on the segment holding `next_lsn` if needed.
            if self.segment.is_none() {
                match self.position()? {
                    Ok(()) => {}
                    Err(gap) => {
                        return if out.is_empty() {
                            Ok(gap)
                        } else {
                            // Deliver what we have; the gap will be
                            // reported on the next poll.
                            Ok(TailPoll::Frames(out))
                        };
                    }
                }
            }
            let (_, file) = self.segment.as_mut().expect("positioned above");
            file.seek(SeekFrom::Start(self.offset))?;
            let mut buf = Vec::new();
            file.read_to_end(&mut buf)?;
            let mut pos = 0usize;
            let mut progressed = false;
            loop {
                if out.len() >= max_frames {
                    break;
                }
                match decode_frame(&buf, pos) {
                    Ok(Some((frame, next))) => {
                        pos = next;
                        progressed = true;
                        if frame.lsn < self.next_lsn {
                            continue; // already emitted (resume overlap)
                        }
                        if frame.lsn != self.next_lsn {
                            // Discontinuity inside a segment: treat as
                            // not-yet-valid tail, stop and wait.
                            pos = buf.len();
                            break;
                        }
                        self.next_lsn += 1;
                        out.push(frame);
                    }
                    // Clean end of visible bytes: caught up with the file.
                    Ok(None) => break,
                    // Torn or in-flight frame: wait, do not truncate.
                    Err(CorruptTail) => break,
                }
            }
            self.offset += pos as u64;
            if out.len() >= max_frames {
                return Ok(TailPoll::Frames(out));
            }
            if progressed {
                continue;
            }
            // Nothing more visible here. Move on once the segment is
            // complete: the primary rotated to a successor starting at
            // `next_lsn`, or snapshot GC unlinked the segment (rotation
            // completed it first). After an unlink, one more read takes
            // what landed since the last; repositioning then finds the
            // successor or reports the gap.
            let current = self.segment.as_ref().map(|&(first, _)| first);
            let segments = segment_files(&self.dir)?;
            let successor = segments
                .iter()
                .any(|&(first, _)| first == self.next_lsn && Some(first) != current);
            let collected = !segments.iter().any(|&(first, _)| Some(first) == current);
            if successor || (collected && drained) {
                self.segment = None;
                drained = false;
            } else if collected {
                drained = true;
            } else {
                return Ok(TailPoll::Frames(out));
            }
        }
    }

    /// Finds the segment containing `next_lsn` and validates its magic.
    /// `Err(TailPoll::Gap)` (inner) when no segment covers it.
    fn position(&mut self) -> io::Result<Result<(), TailPoll>> {
        let segments = segment_files(&self.dir)?;
        // No covering segment: if segments exist at all they all start
        // *after* the wanted LSN — a GC gap. If none exist, the log
        // simply has not been created yet (an empty Frames poll would
        // also be fine, but a uniform Gap lets the consumer decide to
        // bootstrap).
        let gap = TailPoll::Gap {
            wanted: self.next_lsn,
            oldest_available: segments.first().map(|&(lsn, _)| lsn),
        };
        // The covering segment is the last one starting at or before
        // `next_lsn`.
        let covering = segments.iter().rfind(|&&(first, _)| first <= self.next_lsn);
        let Some(&(first, ref path)) = covering else {
            return Ok(Err(gap));
        };
        let mut magic = [0u8; 8];
        match File::open(path).and_then(|mut f| f.read_exact(&mut magic).map(|()| f)) {
            Ok(file) if &magic == SEGMENT_MAGIC => {
                self.segment = Some((first, file));
                self.offset = SEGMENT_MAGIC.len() as u64;
                Ok(Ok(()))
            }
            // Gone, or a short or wrong magic: the segment was just
            // created and the header has not landed yet (or it is
            // foreign junk). Wait.
            _ => Ok(Err(gap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Trade;
    use crate::simdir::{SimDir, WriteFault};
    use crate::store::StockId;
    use crate::wal::{encode_trade, FsyncPolicy, Wal};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quts-tail-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn trade(stock: u32, price: f64) -> Trade {
        Trade {
            stock: StockId(stock),
            price,
            volume: 1,
            trade_time_ms: 0,
        }
    }

    fn frames(poll: TailPoll) -> Vec<Frame> {
        match poll {
            TailPoll::Frames(f) => f,
            other => panic!("expected frames, got {other:?}"),
        }
    }

    #[test]
    fn tails_a_growing_log_incrementally() {
        let dir = tmp_dir("grow");
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        let mut tailer = WalTailer::new(&dir, 0);
        assert_eq!(frames(tailer.poll(64).unwrap()).len(), 0, "empty log");
        for i in 0..5u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        let got = frames(tailer.poll(64).unwrap());
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].lsn, 1);
        assert_eq!(got[4].lsn, 5);
        // More appends become visible on the next poll.
        for i in 5..8u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        let got = frames(tailer.poll(64).unwrap());
        assert_eq!(got.iter().map(|f| f.lsn).collect::<Vec<_>>(), [6, 7, 8]);
        assert_eq!(tailer.next_lsn(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follows_rotation_across_segments() {
        let dir = tmp_dir("rotate");
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 64, 1).unwrap();
        for i in 0..6u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        assert!(segment_files(&dir).unwrap().len() > 1, "must rotate");
        let mut tailer = WalTailer::new(&dir, 0);
        let got = frames(tailer.poll(64).unwrap());
        assert_eq!(
            got.iter().map(|f| f.lsn).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5, 6]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumes_from_an_arbitrary_lsn() {
        let dir = tmp_dir("resume");
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 64, 1).unwrap();
        for i in 0..6u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        let mut tailer = WalTailer::new(&dir, 4);
        let got = frames(tailer.poll(64).unwrap());
        assert_eq!(got.iter().map(|f| f.lsn).collect::<Vec<_>>(), [5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn waits_on_a_torn_tail_instead_of_truncating() {
        let dir = tmp_dir("torn");
        // Writes: the magic header, then one per append.
        let sim = SimDir::default().fault_write(3, WriteFault::Tear(9));
        let mut wal = Wal::create(sim.dir(&dir), FsyncPolicy::Always, 1 << 20, 1).unwrap();
        wal.append(&encode_trade(&trade(0, 1.0))).unwrap();
        assert!(wal.append(&encode_trade(&trade(1, 2.0))).is_err());
        let before = std::fs::metadata(&segment_files(&dir).unwrap()[0].1)
            .unwrap()
            .len();
        let mut tailer = WalTailer::new(&dir, 0);
        let got = frames(tailer.poll(64).unwrap());
        assert_eq!(got.len(), 1, "only the complete frame ships");
        // Polling again still does not repair or advance — and the file
        // is untouched (read-only tailing).
        assert_eq!(frames(tailer.poll(64).unwrap()).len(), 0);
        let after = std::fs::metadata(&segment_files(&dir).unwrap()[0].1)
            .unwrap()
            .len();
        assert_eq!(before, after, "tailer must never truncate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reports_a_gap_when_segments_were_collected() {
        let dir = tmp_dir("gap");
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 64, 1).unwrap();
        for i in 0..6u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() >= 2);
        // Snapshot GC deleted the oldest segment; a tailer wanting LSN 1
        // cannot make progress and must say so.
        std::fs::remove_file(&segs[0].1).unwrap();
        let oldest_left = segment_files(&dir).unwrap()[0].0;
        let mut tailer = WalTailer::new(&dir, 0);
        match tailer.poll(64).unwrap() {
            TailPoll::Gap {
                wanted,
                oldest_available,
            } => {
                assert_eq!(wanted, 1);
                assert_eq!(oldest_available, Some(oldest_left));
            }
            other => panic!("expected a gap, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_positioned_tailer_finishes_a_segment_gc_unlinked() {
        let dir = tmp_dir("unlinked");
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        for i in 0..6u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        let mut tailer = WalTailer::new(&dir, 0);
        let got = frames(tailer.poll(3).unwrap());
        assert_eq!(got.iter().map(|f| f.lsn).collect::<Vec<_>>(), [1, 2, 3]);
        // The primary rotates and appends on; snapshot GC then unlinks
        // the segment the tailer is halfway through.
        let old = segment_files(&dir).unwrap()[0].1.clone();
        wal.rotate().unwrap();
        for i in 6..8u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        std::fs::remove_file(&old).unwrap();
        let got = frames(tailer.poll(64).unwrap());
        assert_eq!(
            got.iter().map(|f| f.lsn).collect::<Vec<_>>(),
            [4, 5, 6, 7, 8]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tailer_a_whole_collected_segment_behind_reports_a_gap() {
        let dir = tmp_dir("behind");
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        let append = |wal: &mut Wal, n: u32| {
            for i in 0..n {
                wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
            }
        };
        append(&mut wal, 6);
        let mut tailer = WalTailer::new(&dir, 0);
        assert_eq!(frames(tailer.poll(3).unwrap()).len(), 3);
        // Two rotations, then GC takes both segments before the newest:
        // the one the tailer holds and the successor it never opened.
        wal.rotate().unwrap();
        append(&mut wal, 2);
        wal.rotate().unwrap();
        append(&mut wal, 1);
        let segs = segment_files(&dir).unwrap();
        std::fs::remove_file(&segs[0].1).unwrap();
        std::fs::remove_file(&segs[1].1).unwrap();
        let got = frames(tailer.poll(64).unwrap());
        assert_eq!(got.iter().map(|f| f.lsn).collect::<Vec<_>>(), [4, 5, 6]);
        assert_eq!(
            tailer.poll(64).unwrap(),
            TailPoll::Gap {
                wanted: 7,
                oldest_available: Some(9)
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_frames_bounds_one_poll() {
        let dir = tmp_dir("bound");
        let mut wal = Wal::create(&dir, FsyncPolicy::Always, 1 << 20, 1).unwrap();
        for i in 0..10u32 {
            wal.append(&encode_trade(&trade(i, i as f64))).unwrap();
        }
        let mut tailer = WalTailer::new(&dir, 0);
        assert_eq!(frames(tailer.poll(4).unwrap()).len(), 4);
        assert_eq!(frames(tailer.poll(4).unwrap()).len(), 4);
        assert_eq!(frames(tailer.poll(4).unwrap()).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
