//! The replication wire protocol: a thin binary layer over TCP, and the
//! only module that knows its bytes. Every message has one writer and
//! one reader here; the shipper and the replica exchange typed values.
//!
//! The stream payload *is* the WAL: shipped records travel as the exact
//! `[len ‖ crc ‖ lsn ‖ payload]` frames [`quts_db::wal::encode_frame`]
//! produces, so the receiver applies the same CRC check replay does and
//! a corrupted link is detected the same way corrupted media is.
//!
//! ```text
//! replica → primary   HELLO:      "QUTSREPL" ‖ name_len u16 ‖ name ‖ resume_lsn u64 ‖ term u64
//! primary → replica   preamble:   TAG_TERM ‖ term u64       (the primary's fencing epoch)
//! primary → replica   preamble:   TAG_TRACE ‖ seed u64      (the primary's trace seed)
//! primary → replica   preamble:   TAG_SNAP ‖ len u64 ‖ snapshot bytes
//!                              or TAG_RESUME               (stream continues at resume_lsn+1)
//! primary → replica   stream:     TAG_FRAME ‖ term u64 ‖ wal frame   (repeated)
//!                              or TAG_HEARTBEAT          (bare tag: the primary is alive)
//! replica → primary   ack:        TAG_ACK ‖ applied u64 ‖ durable u64 ‖ term u64   (25 bytes)
//! ```
//!
//! All integers little-endian, matching the WAL on disk. Every reader
//! checks its tag and its bounds before it allocates, and fails on a
//! short read: it runs over any [`Read`], so a fuzzer can drive it.
//!
//! **Term fencing.** Every session carries the sender's fencing epoch:
//! the replica's persisted term rides the hello, the primary announces
//! its own term with `TAG_TERM` before the bootstrap decision, every
//! shipped frame carries the term it was shipped under, and every ack
//! echoes the term the replica is following. A receiver that knows a
//! higher term refuses the session (or the ack) without mutating any
//! state, so a zombie primary resurrected after a failover can neither
//! feed stale frames to a fenced replica nor collect acks that would let
//! it report writes durable.

use quts_db::wal::{self, Frame};
use std::io::{self, Read, Write};

/// Magic bytes opening every replication handshake.
const HANDSHAKE_MAGIC: &[u8; 8] = b"QUTSREPL";

/// One shipped WAL frame follows, after the term it was shipped under.
const TAG_FRAME: u8 = 0;
/// A snapshot bootstrap follows (length-prefixed snapshot file bytes).
const TAG_SNAP: u8 = 1;
/// A replica progress report follows (applied, durable, term).
const TAG_ACK: u8 = 2;
/// A primary liveness beacon: the bare tag, nothing follows. Lag is
/// measured on the primary, against the replica's acks.
const TAG_HEARTBEAT: u8 = 3;
/// Preamble: no bootstrap needed, frames resume from the requested LSN.
const TAG_RESUME: u8 = 4;
/// Preamble: the primary's trace seed follows (u64). Always sent right
/// after the term announcement, before the bootstrap decision; the
/// replica recomputes every update's trace id from `(seed, lsn)` at
/// apply time, so ids never travel inside WAL frames.
const TAG_TRACE: u8 = 5;
/// Preamble: the primary's fencing term follows (u64). Always the first
/// thing the primary writes, so the replica can fence a stale primary
/// before any bootstrap or frame bytes arrive.
const TAG_TERM: u8 = 6;

/// Longest accepted replica name.
const MAX_NAME: usize = 256;
/// Largest accepted snapshot transfer (1 GiB sanity bound).
const MAX_SNAPSHOT: u64 = 1 << 30;
/// An ack's size on the wire: the tag, then three `u64`s.
const ACK_LEN: usize = 25;

/// The replica's opening message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Hello {
    /// Replica name (registry key; routing and metrics label).
    pub name: String,
    /// Highest LSN the replica has applied; the stream resumes after it.
    pub resume_lsn: u64,
    /// Highest fencing term the replica has persisted. A primary whose
    /// own term is lower is a zombie and must refuse the session.
    pub term: u64,
}

/// A replica progress report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ack {
    /// Highest LSN applied to the replica store.
    pub applied_lsn: u64,
    /// Highest LSN the replica has fsync'd to its own WAL.
    pub durable_lsn: u64,
    /// The term the replica acknowledges under; the primary discards
    /// acks from any other term.
    pub term: u64,
}

/// Everything the primary sends a replica, decoded. The preamble is
/// `Term`, `TraceSeed`, then `Snapshot` or `Resume`; the stream after
/// it is `Frame`s and `Heartbeat`s. The replica enforces that order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FromPrimary {
    /// The primary's fencing term.
    Term(u64),
    /// The primary's trace seed.
    TraceSeed(u64),
    /// A bootstrap: the raw snapshot file bytes (the replica decodes and
    /// CRC-checks them itself).
    Snapshot(Vec<u8>),
    /// No bootstrap: the stream resumes after the hello's LSN.
    Resume,
    /// One WAL frame, CRC-checked, and the term it was shipped under.
    Frame { term: u64, frame: Frame },
    /// The primary is alive.
    Heartbeat,
}

/// Reads exactly `N` bytes; a short read is an error.
fn read_array<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    Ok(read_array::<1>(r)?[0])
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    read_array(r).map(u64::from_le_bytes)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("repl wire: {what}"))
}

/// A tag, then `words` little-endian: every message but the hello.
fn encode(tag: u8, words: &[u64]) -> Vec<u8> {
    let mut msg = vec![tag];
    msg.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    msg
}

/// Whether `name` may name a replica: 1 to `MAX_NAME` bytes of
/// `[A-Za-z0-9._-]`. The name becomes a `METRICS` label value and a
/// field of `REPL`'s line protocol, so it may hold nothing either
/// format would have to escape.
pub(crate) fn valid_name(name: &str) -> bool {
    let allowed = |b: u8| b.is_ascii_alphanumeric() || b"._-".contains(&b);
    (1..=MAX_NAME).contains(&name.len()) && name.bytes().all(allowed)
}

/// Writes the replica's handshake.
pub(crate) fn send_hello(
    mut w: impl Write,
    name: &str,
    resume_lsn: u64,
    term: u64,
) -> io::Result<()> {
    assert!(name.len() <= MAX_NAME, "replica name too long");
    let mut buf = HANDSHAKE_MAGIC.to_vec();
    buf.extend((name.len() as u16).to_le_bytes());
    buf.extend(name.as_bytes());
    buf.extend(resume_lsn.to_le_bytes());
    buf.extend(term.to_le_bytes());
    w.write_all(&buf)
}

/// Reads and validates a handshake.
pub(crate) fn read_hello(r: &mut impl Read) -> io::Result<Hello> {
    if &read_array::<8>(r)? != HANDSHAKE_MAGIC {
        return Err(bad("bad handshake magic"));
    }
    let name_len = u16::from_le_bytes(read_array(r)?) as usize;
    if name_len > MAX_NAME {
        return Err(bad("replica name too long"));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).ok().filter(|n| valid_name(n));
    Ok(Hello {
        name: name.ok_or_else(|| bad("invalid replica name"))?,
        resume_lsn: read_u64(r)?,
        term: read_u64(r)?,
    })
}

/// Writes the term announcement. Always the primary's first bytes on a
/// session.
pub(crate) fn send_term(mut w: impl Write, term: u64) -> io::Result<()> {
    w.write_all(&encode(TAG_TERM, &[term]))
}

/// Writes the trace-seed preamble.
pub(crate) fn send_trace_seed(mut w: impl Write, seed: u64) -> io::Result<()> {
    w.write_all(&encode(TAG_TRACE, &[seed]))
}

/// Writes a bootstrap: the snapshot file's bytes behind their length.
pub(crate) fn send_snapshot(mut w: impl Write, snapshot: &[u8]) -> io::Result<()> {
    w.write_all(&encode(TAG_SNAP, &[snapshot.len() as u64]))?;
    w.write_all(snapshot)
}

/// Writes the no-bootstrap preamble.
pub(crate) fn send_resume(mut w: impl Write) -> io::Result<()> {
    w.write_all(&[TAG_RESUME])
}

/// Encodes one shipped frame under `term`. Bytes, not a write: a link
/// fault may put only part of them on the wire.
pub(crate) fn encode_frame(term: u64, frame: &Frame) -> Vec<u8> {
    let mut msg = encode(TAG_FRAME, &[term]);
    msg.extend(wal::encode_frame(frame.lsn, &frame.payload));
    msg
}

/// Writes a heartbeat.
pub(crate) fn send_heartbeat(mut w: impl Write) -> io::Result<()> {
    w.write_all(&[TAG_HEARTBEAT])
}

/// Reads the next message from the primary, whatever it is.
pub(crate) fn read_from_primary(r: &mut impl Read) -> io::Result<FromPrimary> {
    Ok(match read_u8(r)? {
        TAG_TERM => FromPrimary::Term(read_u64(r)?),
        TAG_TRACE => FromPrimary::TraceSeed(read_u64(r)?),
        TAG_SNAP => {
            let len = read_u64(r)?;
            if len > MAX_SNAPSHOT {
                return Err(bad("bootstrap snapshot implausibly large"));
            }
            let mut bytes = vec![0u8; len as usize];
            r.read_exact(&mut bytes)?;
            FromPrimary::Snapshot(bytes)
        }
        TAG_RESUME => FromPrimary::Resume,
        TAG_FRAME => FromPrimary::Frame {
            term: read_u64(r)?,
            frame: read_wal_frame(r)?,
        },
        TAG_HEARTBEAT => FromPrimary::Heartbeat,
        tag => return Err(bad(&format!("unknown tag {tag} from the primary"))),
    })
}

/// Reads one on-disk WAL frame and CRC-checks it with the same decoder
/// replay uses.
fn read_wal_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut buf = read_array::<{ wal::FRAME_HEADER }>(r)?.to_vec();
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len > wal::MAX_PAYLOAD {
        return Err(bad("shipped frame payload implausibly large"));
    }
    buf.resize(wal::FRAME_HEADER + len, 0);
    r.read_exact(&mut buf[wal::FRAME_HEADER..])?;
    match wal::decode_frame(&buf, 0) {
        Ok(Some((frame, _))) => Ok(frame),
        _ => Err(bad("shipped frame failed its CRC check")),
    }
}

/// Writes one progress report in a single write.
pub(crate) fn send_ack(mut w: impl Write, ack: Ack) -> io::Result<()> {
    let words = [ack.applied_lsn, ack.durable_lsn, ack.term];
    w.write_all(&encode(TAG_ACK, &words))
}

/// Reads one progress report. The whole message in one read: the
/// shipper's ack reader blocks on the bare socket.
pub(crate) fn read_ack(r: &mut impl Read) -> io::Result<Ack> {
    let msg = read_array::<ACK_LEN>(r)?;
    if msg[0] != TAG_ACK {
        return Err(bad("expected an ack from the replica"));
    }
    read_ack_body(&mut &msg[1..])
}

/// Reads an ack body (the tag byte was already consumed).
fn read_ack_body(r: &mut impl Read) -> io::Result<Ack> {
    Ok(Ack {
        applied_lsn: read_u64(r)?,
        durable_lsn: read_u64(r)?,
        term: read_u64(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shipped frame's bytes before its WAL frame: the tag and the term.
    const FRAME_PREFIX: usize = 9;

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        send_hello(&mut buf, "replica-a", 42, 7).unwrap();
        let hello = read_hello(&mut buf.as_slice()).unwrap();
        assert_eq!(
            hello,
            Hello {
                name: "replica-a".into(),
                resume_lsn: 42,
                term: 7,
            }
        );
    }

    #[test]
    fn hello_rejects_garbage() {
        assert!(read_hello(&mut &b"NOTMAGIC\x00\x00"[..]).is_err());
        // Oversized name length is refused before allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(HANDSHAKE_MAGIC);
        buf.extend_from_slice(&(MAX_NAME as u16 + 1).to_le_bytes());
        assert!(read_hello(&mut buf.as_slice()).is_err());
        // A truncated hello (missing the trailing term) is an error, not
        // a silent zero: a peer speaking the pre-term protocol must not
        // slip past the fence unnoticed.
        let mut buf = Vec::new();
        send_hello(&mut buf, "r", 1, 1).unwrap();
        buf.truncate(buf.len() - 8);
        assert!(read_hello(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn a_hello_with_a_name_outside_the_grammar_is_refused() {
        // Hand-encoded: `send_hello` will not write a name this long.
        let hello = |name: &[u8]| {
            let mut buf = HANDSHAKE_MAGIC.to_vec();
            buf.extend((name.len() as u16).to_le_bytes());
            buf.extend(name);
            buf.extend([0; 16]);
            buf
        };
        let longest = vec![b'a'; MAX_NAME];
        assert_eq!(
            read_hello(&mut hello(&longest).as_slice())
                .unwrap()
                .name
                .len(),
            MAX_NAME
        );
        let too_long = vec![b'a'; MAX_NAME + 1];
        let mut refused: Vec<&[u8]> = vec![b"", &too_long];
        refused.extend([&b"r\""[..], b"r\n", b"r 1", b"r=1", b"r{"]);
        for name in refused {
            let err = read_hello(&mut hello(name).as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name:?}: {err}");
        }
    }

    #[test]
    fn trace_seed_roundtrip() {
        let mut buf = Vec::new();
        send_trace_seed(&mut buf, 0xDEAD_BEEF_0042).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_u8(&mut r).unwrap(), TAG_TRACE);
        assert_eq!(read_u64(&mut r).unwrap(), 0xDEAD_BEEF_0042);
        assert!(r.is_empty());
    }

    #[test]
    fn term_announcement_roundtrip() {
        let mut buf = Vec::new();
        send_term(&mut buf, 9).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_u8(&mut r).unwrap(), TAG_TERM);
        assert_eq!(read_u64(&mut r).unwrap(), 9);
        assert!(r.is_empty());
    }

    #[test]
    fn ack_roundtrip() {
        let ack = Ack {
            applied_lsn: 7,
            durable_lsn: 5,
            term: 2,
        };
        let mut buf = Vec::new();
        send_ack(&mut buf, ack).unwrap();
        assert_eq!(buf.len(), 25);
        let mut r = buf.as_slice();
        assert_eq!(read_u8(&mut r).unwrap(), TAG_ACK);
        assert_eq!(read_ack_body(&mut r).unwrap(), ack);
        assert!(r.is_empty());
        // A body cut short anywhere — down to one byte short of its 24 —
        // is an error, never a panic or a partial ack.
        for len in 0..24 {
            assert!(read_ack_body(&mut &buf[1..1 + len]).is_err(), "{len}");
        }
    }

    fn frame(lsn: u64) -> Frame {
        Frame {
            lsn,
            payload: (0..wal::TRADE_PAYLOAD as u8).collect(),
        }
    }

    /// Every message the primary sends, encoded, with what it decodes to.
    fn primary_messages() -> Vec<(Vec<u8>, FromPrimary)> {
        let mut term = Vec::new();
        send_term(&mut term, 9).unwrap();
        let mut seed = Vec::new();
        send_trace_seed(&mut seed, 0xDEAD_BEEF_0042).unwrap();
        let mut snap = Vec::new();
        send_snapshot(&mut snap, b"snapshot bytes").unwrap();
        let mut resume = Vec::new();
        send_resume(&mut resume).unwrap();
        let mut beat = Vec::new();
        send_heartbeat(&mut beat).unwrap();
        vec![
            (term, FromPrimary::Term(9)),
            (seed, FromPrimary::TraceSeed(0xDEAD_BEEF_0042)),
            (snap, FromPrimary::Snapshot(b"snapshot bytes".to_vec())),
            (resume, FromPrimary::Resume),
            (
                encode_frame(4, &frame(17)),
                FromPrimary::Frame {
                    term: 4,
                    frame: frame(17),
                },
            ),
            (beat, FromPrimary::Heartbeat),
        ]
    }

    fn hello_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        send_hello(&mut buf, "replica-a", 42, 7).unwrap();
        buf
    }

    const ACK: Ack = Ack {
        applied_lsn: 7,
        durable_lsn: 5,
        term: 2,
    };

    fn ack_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        send_ack(&mut buf, ACK).unwrap();
        buf
    }

    #[test]
    fn every_message_round_trips() {
        let hello = hello_bytes();
        let mut r = hello.as_slice();
        assert_eq!(
            read_hello(&mut r).unwrap(),
            Hello {
                name: "replica-a".into(),
                resume_lsn: 42,
                term: 7,
            }
        );
        assert!(r.is_empty());
        for (bytes, want) in primary_messages() {
            let mut r = bytes.as_slice();
            assert_eq!(read_from_primary(&mut r).unwrap(), want);
            assert!(r.is_empty(), "{want:?} left bytes unread");
        }
        let ack = ack_bytes();
        assert_eq!(ack.len(), ACK_LEN);
        let mut r = ack.as_slice();
        assert_eq!(read_ack(&mut r).unwrap(), ACK);
        assert!(r.is_empty());
    }

    #[test]
    fn every_reader_fails_on_every_truncation() {
        let hello = hello_bytes();
        for len in 0..hello.len() {
            assert!(
                read_hello(&mut &hello[..len]).is_err(),
                "hello cut at {len}"
            );
        }
        for (bytes, want) in primary_messages() {
            for len in 0..bytes.len() {
                assert!(
                    read_from_primary(&mut &bytes[..len]).is_err(),
                    "{want:?} cut at {len}"
                );
            }
        }
        let ack = ack_bytes();
        for len in 0..ack.len() {
            assert!(read_ack(&mut &ack[..len]).is_err(), "ack cut at {len}");
        }
    }

    #[test]
    fn a_flipped_byte_in_a_shipped_frame_fails_the_crc_check() {
        let clean = encode_frame(4, &frame(17));
        for at in FRAME_PREFIX..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x01;
            assert!(
                read_from_primary(&mut bytes.as_slice()).is_err(),
                "flip at byte {at} went unnoticed"
            );
        }
    }

    #[test]
    fn oversized_lengths_are_refused_before_allocating() {
        // Only the length arrives: a reader that trusted it would wait on
        // (or allocate for) bytes that never come, and fail with a short
        // read instead of refusing the length.
        let mut snap = vec![TAG_SNAP];
        snap.extend_from_slice(&(MAX_SNAPSHOT + 1).to_le_bytes());
        let err = read_from_primary(&mut snap.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        let mut shipped = encode_frame(1, &frame(1));
        let len = (wal::MAX_PAYLOAD as u32 + 1).to_le_bytes();
        shipped[FRAME_PREFIX..FRAME_PREFIX + 4].copy_from_slice(&len);
        shipped.truncate(FRAME_PREFIX + wal::FRAME_HEADER);
        let err = read_from_primary(&mut shipped.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn unknown_tags_and_untagged_acks_are_refused() {
        for tag in [TAG_ACK, 7, 0xFF] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&[0; 32]);
            let err = read_from_primary(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}: {err}");
        }
        let mut ack = ack_bytes();
        ack[0] = TAG_HEARTBEAT;
        let err = read_ack(&mut ack.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
