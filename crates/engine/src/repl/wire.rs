//! The replication wire protocol: a thin binary layer over TCP.
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
//! primary → replica   stream:     TAG_FRAME ‖ wal frame    (repeated)
//!                              or TAG_HEARTBEAT          (bare tag: the primary is alive)
//! replica → primary   ack:        TAG_ACK ‖ applied u64 ‖ durable u64 ‖ term u64   (25 bytes)
//! ```
//!
//! All integers little-endian, matching the WAL on disk.
//!
//! **Term fencing.** Every session carries the sender's fencing epoch:
//! the replica's persisted term rides the hello, the primary announces
//! its own term with `TAG_TERM` before the bootstrap decision, and every
//! ack echoes the term the replica is following. A receiver that knows a
//! higher term refuses the session (or the ack) without mutating any
//! state, so a zombie primary resurrected after a failover can neither
//! feed stale frames to a fenced replica nor collect acks that would let
//! it report writes durable.

use std::io::{self, Read, Write};

/// Magic bytes opening every replication handshake.
pub(crate) const HANDSHAKE_MAGIC: &[u8; 8] = b"QUTSREPL";

/// One shipped WAL frame follows.
pub(crate) const TAG_FRAME: u8 = 0;
/// A snapshot bootstrap follows (length-prefixed snapshot file bytes).
pub(crate) const TAG_SNAP: u8 = 1;
/// A replica progress report follows (applied, durable, term).
pub(crate) const TAG_ACK: u8 = 2;
/// A primary liveness beacon: the bare tag, nothing follows. Lag is
/// measured on the primary, against the replica's acks.
pub(crate) const TAG_HEARTBEAT: u8 = 3;
/// Preamble: no bootstrap needed, frames resume from the requested LSN.
pub(crate) const TAG_RESUME: u8 = 4;
/// Preamble: the primary's trace seed follows (u64). Always sent right
/// after the term announcement, before the bootstrap decision; the
/// replica recomputes every update's trace id from `(seed, lsn)` at
/// apply time, so ids never travel inside WAL frames.
pub(crate) const TAG_TRACE: u8 = 5;
/// Preamble: the primary's fencing term follows (u64). Always the first
/// thing the primary writes, so the replica can fence a stale primary
/// before any bootstrap or frame bytes arrive.
pub(crate) const TAG_TERM: u8 = 6;

/// Longest accepted replica name.
pub(crate) const MAX_NAME: usize = 256;
/// Largest accepted snapshot transfer (1 GiB sanity bound).
pub(crate) const MAX_SNAPSHOT: u64 = 1 << 30;

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

/// A replica progress report: 25 bytes on the wire, the tag byte then
/// three `u64`s.
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

pub(crate) fn read_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("repl wire: {what}"))
}

/// Writes the replica's handshake.
pub(crate) fn send_hello(
    w: &mut impl Write,
    name: &str,
    resume_lsn: u64,
    term: u64,
) -> io::Result<()> {
    assert!(name.len() <= MAX_NAME, "replica name too long");
    let mut buf = Vec::with_capacity(HANDSHAKE_MAGIC.len() + 2 + name.len() + 16);
    buf.extend_from_slice(HANDSHAKE_MAGIC);
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.extend_from_slice(&resume_lsn.to_le_bytes());
    buf.extend_from_slice(&term.to_le_bytes());
    w.write_all(&buf)
}

/// Reads and validates a handshake.
pub(crate) fn read_hello(r: &mut impl Read) -> io::Result<Hello> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != HANDSHAKE_MAGIC {
        return Err(bad("bad handshake magic"));
    }
    let name_len = read_u16(r)? as usize;
    if name_len > MAX_NAME {
        return Err(bad("replica name too long"));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| bad("non-utf8 replica name"))?;
    let resume_lsn = read_u64(r)?;
    let term = read_u64(r)?;
    Ok(Hello {
        name,
        resume_lsn,
        term,
    })
}

/// Writes the trace-seed preamble (single write).
pub(crate) fn send_trace_seed(w: &mut impl Write, seed: u64) -> io::Result<()> {
    let mut buf = [0u8; 9];
    buf[0] = TAG_TRACE;
    buf[1..9].copy_from_slice(&seed.to_le_bytes());
    w.write_all(&buf)
}

/// Writes the term announcement (single write). Always the primary's
/// first bytes on a session.
pub(crate) fn send_term(w: &mut impl Write, term: u64) -> io::Result<()> {
    let mut buf = [0u8; 9];
    buf[0] = TAG_TERM;
    buf[1..9].copy_from_slice(&term.to_le_bytes());
    w.write_all(&buf)
}

/// Writes one progress report (single write: arrives atomically in
/// practice, so the shipper's timeout-bounded reads never desync).
pub(crate) fn send_ack(w: &mut impl Write, ack: Ack) -> io::Result<()> {
    let mut buf = [0u8; 25];
    buf[0] = TAG_ACK;
    buf[1..9].copy_from_slice(&ack.applied_lsn.to_le_bytes());
    buf[9..17].copy_from_slice(&ack.durable_lsn.to_le_bytes());
    buf[17..25].copy_from_slice(&ack.term.to_le_bytes());
    w.write_all(&buf)
}

/// Reads an ack body (the tag byte was already consumed).
pub(crate) fn read_ack_body(r: &mut impl Read) -> io::Result<Ack> {
    Ok(Ack {
        applied_lsn: read_u64(r)?,
        durable_lsn: read_u64(r)?,
        term: read_u64(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
