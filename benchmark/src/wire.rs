//! The client side of the line protocol: contracts as written on the
//! wire, reply classification, one TCP session, and the per-request span
//! log. Nothing here depends on the system under test — a session knows
//! an address and the grammar, like any other client.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Shape of a contract's two profit functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Full profit strictly below the cutoff, nothing at or past it.
    Step,
    /// Linear decay from the maximum at 0 to nothing at the cutoff.
    Linear,
}

/// A Quality Contract as the client states it, with the client's own
/// profit arithmetic: the benchmark recomputes profit from what it
/// observed rather than trusting the reply's `qos`/`qod` fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contract {
    pub shape: Shape,
    pub qosmax: f64,
    pub rtmax_ms: f64,
    pub qodmax: f64,
    pub uumax: u32,
}

fn profit(shape: Shape, max: f64, cutoff: f64, metric: f64) -> f64 {
    let metric = metric.max(0.0);
    if metric >= cutoff {
        return 0.0;
    }
    match shape {
        Shape::Step => max,
        Shape::Linear => max * (1.0 - metric / cutoff),
    }
}

impl Contract {
    /// A step contract with its values rounded to what the wire carries
    /// (two decimals of profit, one of milliseconds), so client and
    /// server price the same numbers.
    pub fn step_on_wire(qosmax: f64, rtmax_ms: f64, qodmax: f64, uumax: u32) -> Contract {
        Contract {
            shape: Shape::Step,
            qosmax: (qosmax * 100.0).round() / 100.0,
            rtmax_ms: (rtmax_ms * 10.0).round() / 10.0,
            qodmax: (qodmax * 100.0).round() / 100.0,
            uumax,
        }
    }

    pub fn qos_profit(&self, rt_ms: f64) -> f64 {
        profit(self.shape, self.qosmax, self.rtmax_ms, rt_ms)
    }

    pub fn qod_profit(&self, uu: f64) -> f64 {
        profit(self.shape, self.qodmax, f64::from(self.uumax), uu)
    }

    pub fn total_max(&self) -> f64 {
        self.qosmax + self.qodmax
    }

    /// The ` QOS .. QOD ..` clause. The protocol only speaks step
    /// contracts, so only those may be rendered.
    pub fn clause(&self) -> String {
        assert_eq!(
            self.shape,
            Shape::Step,
            "the wire carries step contracts only"
        );
        format!(
            " QOS {:.2} {:.1} QOD {:.2} {}",
            self.qosmax, self.rtmax_ms, self.qodmax, self.uumax
        )
    }
}

/// What a request asks for; decides which payload a reply must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Get,
    Avg,
    Cmp,
    Upd,
}

impl Verb {
    pub fn is_query(self) -> bool {
        self != Verb::Upd
    }

    pub fn label(self) -> &'static str {
        match self {
            Verb::Get => "GET",
            Verb::Avg => "AVG",
            Verb::Cmp => "CMP",
            Verb::Upd => "UPD",
        }
    }
}

/// One generated request: the line to send (newline included) and what
/// is needed to judge its reply.
#[derive(Debug, Clone)]
pub struct Request {
    pub verb: Verb,
    pub line: String,
    /// Present on queries.
    pub contract: Option<Contract>,
}

/// Why the server refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    Overloaded,
    Busy,
    Expired,
    Timeout,
    Unavailable,
}

/// A reply line, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    QueryOk {
        rt_ms: f64,
        uu: f64,
        qos: f64,
        qod: f64,
    },
    UpdateOk,
    /// A load- or availability-related refusal: counts as failed.
    Refused(ErrKind),
    /// Anything else — a protocol violation the correctness gate reports
    /// verbatim (this includes `ERR unknown symbol` and parse errors,
    /// which generated requests must never provoke).
    Violation(String),
}

fn field<'a>(tokens: &'a [&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

fn number(tokens: &[&str], key: &str) -> Option<f64> {
    field(tokens, key)?
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
}

/// Classifies `line` as the reply to `request`, checking that an `OK`
/// carries the payload the verb calls for and that `uu`/`qos`/`qod` lie
/// within the contract's range.
pub fn classify(request: &Request, line: &str) -> Reply {
    let violation = |why: &str| {
        Reply::Violation(format!(
            "{why}: {line:?} (to {:?})",
            request.line.trim_end()
        ))
    };
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match tokens.as_slice() {
        ["ERR", "overloaded"] => Reply::Refused(ErrKind::Overloaded),
        ["ERR", "busy"] => Reply::Refused(ErrKind::Busy),
        ["ERR", "expired"] => Reply::Refused(ErrKind::Expired),
        ["ERR", "timeout"] => Reply::Refused(ErrKind::Timeout),
        ["ERR", "unavailable"] => Reply::Refused(ErrKind::Unavailable),
        ["ERR", ..] => violation("unexpected error"),
        ["OK"] if request.verb == Verb::Upd => Reply::UpdateOk,
        ["OK", rest @ ..] if request.verb.is_query() => {
            let payload_ok = match request.verb {
                Verb::Get => number(rest, "price").is_some(),
                Verb::Avg => number(rest, "avg").is_some(),
                Verb::Cmp => ["min", "max", "spread"]
                    .iter()
                    .all(|k| number(rest, k).is_some()),
                Verb::Upd => unreachable!("guarded above"),
            };
            if !payload_ok {
                return violation("payload does not match the verb");
            }
            let rt_ms = field(rest, "rt")
                .and_then(|v| v.strip_suffix("ms"))
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v >= 0.0);
            let (Some(rt_ms), Some(uu), Some(qos), Some(qod)) = (
                rt_ms,
                number(rest, "uu"),
                number(rest, "qos"),
                number(rest, "qod"),
            ) else {
                return violation("malformed OK fields");
            };
            let contract = request.contract.expect("queries carry a contract");
            // Replies print profit with two decimals.
            let within = |v: f64, max: f64| (-0.005..=max + 0.005).contains(&v);
            if uu < 0.0 || !within(qos, contract.qosmax) || !within(qod, contract.qodmax) {
                return violation("uu/qos/qod outside the contract's range");
            }
            // The server may not report more QoD profit than the
            // staleness it reports itself allows.
            if (qod - contract.qod_profit(uu)).abs() > 0.005 {
                return violation("qod disagrees with the reported uu");
            }
            Reply::QueryOk {
                rt_ms,
                uu,
                qos,
                qod,
            }
        }
        _ => violation("unrecognised reply"),
    }
}

/// One request's life as the generator saw it. Times are nanoseconds
/// since the run's epoch; `0` in `first_byte`/`done` means never.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub verb: Verb,
    /// When the request was due (equals `write_start` in a closed loop).
    pub due: u64,
    pub write_start: u64,
    pub write_end: u64,
    /// When the read that carried the reply's first byte returned.
    pub first_byte: u64,
    /// When the reply line was complete and classified.
    pub done: u64,
    /// The span that caused this one: the session's connect span.
    pub cause: u64,
}

/// Renders spans as JSON lines.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"kind\":\"{}\",\"due\":{},\"write_start\":{},\"write_end\":{},\"first_byte\":{},\"done\":{},\"cause\":{}}}\n",
            s.id,
            s.verb.label(),
            s.due,
            s.write_start,
            s.write_end,
            s.first_byte,
            s.done,
            s.cause
        ));
    }
    out
}

/// How long a closed-loop caller waits for one reply before the request
/// counts as unanswered and the session is abandoned.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One TCP session speaking the line protocol.
pub struct Session {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    head: usize,
    nonblocking: bool,
}

impl Session {
    /// Connects with `TCP_NODELAY` set on the client socket, so a request
    /// leaves when the generator writes it: the generator's own stack
    /// must not add latency to what it measures.
    pub fn connect(addr: SocketAddr) -> io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Session {
            stream,
            buf: Vec::with_capacity(1 << 16),
            head: 0,
            nonblocking: false,
        })
    }

    /// Switches between blocking reads (closed loop, with
    /// [`REPLY_TIMEOUT`]) and non-blocking reads (open loop).
    pub fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        if !self.nonblocking {
            return self.stream.write_all(bytes);
        }
        // A non-blocking socket may refuse part of a batch when the send
        // buffer is full; wait for room rather than drop bytes.
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                // Keep draining replies meanwhile: a server blocked on
                // writing them would never read what we are sending.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.fill()?;
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Pops one complete line from the buffer, if there is one.
    pub fn pop_line(&mut self) -> Option<String> {
        let rel = self.buf[self.head..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[self.head..self.head + rel])
            .trim_end()
            .to_string();
        self.head += rel + 1;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
        Some(line)
    }

    /// Reads whatever the socket has into the buffer. `Ok(0)` means
    /// nothing arrived (would block, or the blocking timeout passed);
    /// a closed connection is an error.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.head > 0 && self.head > self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            return match self.stream.read(&mut chunk) {
                Ok(0) => Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    Ok(n)
                }
                // A signal (a stopped and resumed process, say) cut the
                // read short; nothing timed out.
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(0),
                Err(e) => Err(e),
            };
        }
    }

    /// Blocks for the next line; `None` when [`REPLY_TIMEOUT`] passes
    /// first. Also returns when the read carrying its first byte came
    /// back.
    pub fn read_line_blocking(&mut self) -> io::Result<Option<(String, Instant)>> {
        // Bytes already buffered arrived with an earlier read: "now".
        let mut first_byte = (self.buf.len() > self.head).then(Instant::now);
        loop {
            if let Some(line) = self.pop_line() {
                return Ok(Some((line, first_byte.unwrap_or_else(Instant::now))));
            }
            if self.fill()? == 0 {
                return Ok(None);
            }
            first_byte.get_or_insert_with(Instant::now);
        }
    }

    /// One multi-line response terminated by `# EOF` (the `REPL` verb).
    pub fn request_multiline(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.set_nonblocking(false)?;
        self.send(format!("{line}\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let Some((l, _)) = self.read_line_blocking()? else {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "multi-line reply timed out",
                ));
            };
            if l == "# EOF" || l.starts_with("ERR") {
                lines.push(l);
                return Ok(lines);
            }
            lines.push(l);
        }
    }

    /// Polite close: `QUIT`, then drop without waiting for `BYE` (the
    /// wait would be one more reply latency inside a closed loop).
    pub fn quit(mut self) {
        let _ = self.send(b"QUIT\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(contract: Contract) -> Request {
        Request {
            verb: Verb::Get,
            line: format!("GET S0001{}\n", contract.clause()),
            contract: Some(contract),
        }
    }

    #[test]
    fn reply_parser_classifies_every_err_form() {
        let c = Contract::step_on_wire(20.0, 50.0, 30.0, 1);
        let q = get(c);
        for (line, kind) in [
            ("ERR overloaded", ErrKind::Overloaded),
            ("ERR busy", ErrKind::Busy),
            ("ERR expired", ErrKind::Expired),
            ("ERR timeout", ErrKind::Timeout),
            ("ERR unavailable", ErrKind::Unavailable),
        ] {
            assert_eq!(classify(&q, line), Reply::Refused(kind), "{line}");
        }
        for line in [
            "ERR unknown symbol S9999",
            "ERR bad price \"x\"",
            "ERR",
            "BYE",
            "",
            "OK",
        ] {
            assert!(
                matches!(classify(&q, line), Reply::Violation(_)),
                "{line:?}"
            );
        }
    }

    #[test]
    fn reply_parser_checks_ok_fields_against_verb_and_contract() {
        let c = Contract::step_on_wire(20.0, 50.0, 30.0, 1);
        let q = get(c);
        assert_eq!(
            classify(&q, "OK price=101.25 rt=0.05ms uu=0 qos=20.00 qod=30.00"),
            Reply::QueryOk {
                rt_ms: 0.05,
                uu: 0.0,
                qos: 20.0,
                qod: 30.0
            }
        );
        // Stale answer: no QoD profit, still well-formed.
        assert!(matches!(
            classify(&q, "OK price=101.25 rt=0.05ms uu=2 qos=20.00 qod=0.00"),
            Reply::QueryOk { .. }
        ));
        for bad in [
            "OK avg=101.25 rt=0.05ms uu=0 qos=20.00 qod=30.00", // wrong payload
            "OK price=101.25 rt=0.05 uu=0 qos=20.00 qod=30.00", // rt without unit
            "OK price=101.25 rt=0.05ms uu=0 qos=20.00",         // missing qod
            "OK price=101.25 rt=0.05ms uu=0 qos=20.01 qod=30.00", // qos above qosmax
            "OK price=101.25 rt=0.05ms uu=-1 qos=20.00 qod=30.00", // negative staleness
            "OK price=101.25 rt=0.05ms uu=1 qos=20.00 qod=30.00", // qod paid on stale data
            "OK price=NaN rt=0.05ms uu=0 qos=20.00 qod=30.00",
        ] {
            assert!(matches!(classify(&q, bad), Reply::Violation(_)), "{bad}");
        }
        let avg = Request {
            verb: Verb::Avg,
            line: "AVG S1 8\n".into(),
            contract: Some(c),
        };
        assert!(matches!(
            classify(&avg, "OK avg=99.10 rt=0.01ms uu=0 qos=20.00 qod=30.00"),
            Reply::QueryOk { .. }
        ));
        let cmp = Request {
            verb: Verb::Cmp,
            line: "CMP S1 S2\n".into(),
            contract: Some(c),
        };
        assert!(matches!(
            classify(
                &cmp,
                "OK min=1.00 max=2.00 spread=1.00 rt=0.01ms uu=0 qos=20.00 qod=30.00"
            ),
            Reply::QueryOk { .. }
        ));
        let upd = Request {
            verb: Verb::Upd,
            line: "UPD S1 1.0 1\n".into(),
            contract: None,
        };
        assert_eq!(classify(&upd, "OK"), Reply::UpdateOk);
        assert_eq!(
            classify(&upd, "ERR overloaded"),
            Reply::Refused(ErrKind::Overloaded)
        );
        assert!(matches!(
            classify(&upd, "OK price=1.00"),
            Reply::Violation(_)
        ));
        assert!(matches!(classify(&q, "OK"), Reply::Violation(_)));
    }

    #[test]
    fn contract_clause_round_trips_the_rounded_values() {
        let c = Contract::step_on_wire(12.3456, 73.26, 45.678, 1);
        assert_eq!(c.clause(), " QOS 12.35 73.3 QOD 45.68 1");
        assert_eq!((c.qosmax, c.rtmax_ms, c.qodmax), (12.35, 73.3, 45.68));
    }

    #[test]
    fn session_splits_lines_across_reads() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            s.write_all(b"OK\nER").unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b"R busy\n").unwrap();
        });
        let mut session = Session::connect(addr).unwrap();
        let (a, _) = session.read_line_blocking().unwrap().unwrap();
        let (b, _) = session.read_line_blocking().unwrap().unwrap();
        assert_eq!((a.as_str(), b.as_str()), ("OK", "ERR busy"));
        server.join().unwrap();
        assert!(
            session.read_line_blocking().is_err(),
            "EOF is an error, not a line"
        );
    }
}
