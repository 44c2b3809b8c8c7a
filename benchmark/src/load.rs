//! The load generator: what one session sends, when, and how every
//! reply is judged and accounted. One thread drives one session; nothing
//! here spins.
//!
//! Three drivers share one [`Tally`]: a closed loop (one request in
//! flight), a windowed flood (a fixed number in flight) and an open loop
//! (requests leave at their due time whether or not earlier replies
//! arrived, and latency counts from the due time).

use crate::stats::Samples;
use crate::wire::{classify, Reply, Request, Session, Span, Verb};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Spans kept per session: the flood workload would otherwise hold
/// millions. The first ones are kept; the count of all is in the tally.
pub const SPAN_CAP: usize = 100_000;

/// How often an open-loop session looks for replies while it waits for
/// its next due time. A socket read timeout cannot serve here: the
/// kernel rounds `SO_RCVTIMEO` up to whole scheduler ticks (measured:
/// 8 ms for a 50 µs request), which alone would break the 1 ms lateness
/// bar. `thread::sleep` is timer-precise (~85 µs overshoot), so the
/// generator sleeps to the earlier of the next due time and this grain.
/// Open-loop latencies therefore carry up to one grain of detection
/// delay; the closed loop blocks in `read` and carries none.
pub const POLL_GRAIN: Duration = Duration::from_micros(100);

/// How long after a stage's last due time its requests may still be
/// answered; what is outstanding then counts as unanswered. A stage
/// ends as soon as its last reply is in, so this costs nothing unless
/// the server has gone quiet; it is long because a shared sandbox takes
/// a core away for hundreds of milliseconds at a time, and a reply that
/// such a pause delays is late (it misses its `rtmax`), not lost.
pub const STAGE_PATIENCE: Duration = Duration::from_secs(5);

/// Violations quoted in the report (all are counted).
const VIOLATIONS_QUOTED: usize = 8;

/// Everything one session observed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok_queries: u64,
    pub ok_updates: u64,
    /// `ERR overloaded|busy|expired|timeout|unavailable`.
    pub refused: u64,
    pub unanswered: u64,
    pub io_errors: u64,
    pub violation_count: u64,
    pub violations: Vec<String>,
    /// Client-observed latency of queries answered `OK`.
    pub query_lat: Samples,
    /// Client-observed latency of updates answered `OK`.
    pub update_lat: Samples,
    /// Queries answered `OK` within the `rtmax` they asked for, on the
    /// client's clock.
    pub within_rtmax: u64,
    pub queries_attempted: u64,
    pub profit_gained: f64,
    pub profit_offered: f64,
    /// How late each open-loop write started after its due time.
    pub late: Samples,
    /// `connect()` call → first reply on the new session.
    pub connect_first_reply: Samples,
    /// `connect()` return → first reply on the new session.
    pub after_connect_first_reply: Samples,
    /// When the last reply was read: with the start of measurement it
    /// bounds the time the counted work took.
    pub last_reply: Option<Instant>,
    pub spans: Vec<Span>,
    pub keep_spans: bool,
    next_span_id: u64,
}

impl Tally {
    pub fn new(keep_spans: bool) -> Tally {
        Tally {
            keep_spans,
            ..Tally::default()
        }
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.unanswered + self.io_errors + self.violation_count
    }

    pub fn ok(&self) -> u64 {
        self.ok_queries + self.ok_updates
    }

    pub fn attempt(&mut self, request: &Request) {
        self.attempted += 1;
        if let Some(contract) = &request.contract {
            self.queries_attempted += 1;
            self.profit_offered += contract.total_max();
        }
    }

    fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < VIOLATIONS_QUOTED {
            self.violations.push(what);
        }
    }

    /// Accounts one classified reply that took `latency_ns` on the
    /// client's clock. `sample` is false for replies whose latency
    /// belongs to another metric (the first on a new connection).
    pub fn reply(
        &mut self,
        request: &Request,
        reply: Reply,
        done: Instant,
        latency_ns: u64,
        sample: bool,
    ) {
        self.last_reply = Some(done);
        match reply {
            Reply::QueryOk { uu, .. } => {
                self.ok_queries += 1;
                let contract = request.contract.expect("queries carry a contract");
                let rt_ms = latency_ns as f64 / 1e6;
                self.profit_gained += contract.qos_profit(rt_ms) + contract.qod_profit(uu);
                if rt_ms < contract.rtmax_ms {
                    self.within_rtmax += 1;
                }
                if sample {
                    self.query_lat.push(latency_ns);
                }
            }
            Reply::UpdateOk => {
                self.ok_updates += 1;
                if sample {
                    self.update_lat.push(latency_ns);
                }
            }
            Reply::Refused(_) => self.refused += 1,
            Reply::Violation(what) => self.violation(what),
        }
    }

    /// Keeps the span `make` builds from a fresh id, unless spans are
    /// off or the cap is reached.
    fn span(&mut self, make: impl FnOnce(u64) -> Span) {
        if self.keep_spans && self.spans.len() < SPAN_CAP {
            let id = self.span_id();
            self.spans.push(make(id));
        }
    }

    fn span_id(&mut self) -> u64 {
        self.next_span_id += 1;
        self.next_span_id
    }

    /// Folds another session's (or phase's) observations into this one.
    pub fn absorb(&mut self, mut other: Tally) {
        self.attempted += other.attempted;
        self.ok_queries += other.ok_queries;
        self.ok_updates += other.ok_updates;
        self.refused += other.refused;
        self.unanswered += other.unanswered;
        self.io_errors += other.io_errors;
        self.violation_count += other.violation_count;
        let room = VIOLATIONS_QUOTED.saturating_sub(self.violations.len());
        self.violations
            .extend(other.violations.drain(..).take(room));
        self.query_lat.extend(&other.query_lat);
        self.update_lat.extend(&other.update_lat);
        self.within_rtmax += other.within_rtmax;
        self.queries_attempted += other.queries_attempted;
        self.profit_gained += other.profit_gained;
        self.profit_offered += other.profit_offered;
        self.last_reply = self.last_reply.max(other.last_reply);
        self.late.extend(&other.late);
        self.connect_first_reply.extend(&other.connect_first_reply);
        self.after_connect_first_reply
            .extend(&other.after_connect_first_reply);
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.drain(..).take(room));
    }
}

/// Nanoseconds from the run's epoch to `t`.
pub fn since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// A cyclic source of pre-generated requests: a closed loop that
/// outruns its pool wraps around, so inputs stay a function of the seed.
pub struct Pool<'a> {
    requests: &'a [Request],
    next: usize,
}

impl<'a> Pool<'a> {
    pub fn new(requests: &'a [Request]) -> Pool<'a> {
        assert!(!requests.is_empty(), "an empty request pool");
        Pool { requests, next: 0 }
    }

    pub fn take(&mut self) -> &'a Request {
        let r = &self.requests[self.next % self.requests.len()];
        self.next += 1;
        r
    }
}

/// When a closed loop or a flood stops sending.
pub enum Stop<'a> {
    At(Instant),
    /// After this many requests were written.
    After(u64),
    When(&'a AtomicBool),
}

impl Stop<'_> {
    fn reached(&self, written: u64) -> bool {
        match self {
            Stop::At(end) => Instant::now() >= *end,
            Stop::After(n) => written >= *n,
            Stop::When(flag) => flag.load(Ordering::Acquire),
        }
    }
}

/// Sends one request and blocks for its reply. Returns when the reply
/// was complete, or `None` when the session is dead — the request went
/// unanswered or the socket failed, either of which is counted.
/// `fresh` carries the `connect` call and return times when this is the
/// first request on a new session.
pub fn one_request(
    session: &mut Session,
    request: &Request,
    epoch: Instant,
    fresh: Option<(Instant, Instant)>,
    cause: u64,
    tally: &mut Tally,
) -> Option<Instant> {
    tally.attempt(request);
    let write_start = Instant::now();
    if session.send(request.line.as_bytes()).is_err() {
        tally.io_errors += 1;
        return None;
    }
    let write_end = Instant::now();
    let (line, first_byte) = match session.read_line_blocking() {
        Ok(Some(reply)) => reply,
        Ok(None) => {
            tally.unanswered += 1;
            return None;
        }
        Err(_) => {
            tally.io_errors += 1;
            return None;
        }
    };
    let done = Instant::now();
    if let Some((before, after)) = fresh {
        tally.connect_first_reply.push(since(before, done));
        tally.after_connect_first_reply.push(since(after, done));
    }
    // The first reply on a new session is `connect_first_reply`'s
    // sample, not a warm request's.
    tally.reply(
        request,
        classify(request, &line),
        done,
        since(write_start, done),
        fresh.is_none(),
    );
    tally.span(|id| Span {
        id,
        verb: request.verb,
        due: since(epoch, write_start),
        write_start: since(epoch, write_start),
        write_end: since(epoch, write_end),
        first_byte: since(epoch, first_byte),
        done: since(epoch, done),
        cause,
    });
    Some(done)
}

/// Closed loop: one request in flight until `stop`, `think` idle time
/// after each reply. With `reconnect_every`, the session is closed and
/// re-opened after that many requests and `connect` → first reply is
/// timed.
///
/// A dead session ends the loop: a caller that waits for its reply has
/// nothing left to do on it.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &mut Pool<'_>,
    epoch: Instant,
    stop: Stop<'_>,
    reconnect_every: Option<usize>,
    think: Option<Duration>,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut session = Session::connect(addr)?;
    let mut on_session = 0usize;
    let mut connect_span = 0u64;
    let mut written = 0u64;
    while !stop.reached(written) {
        let mut fresh = None;
        if reconnect_every.is_some_and(|every| on_session >= every) {
            session.quit();
            let before = Instant::now();
            session = Session::connect(addr)?;
            fresh = Some((before, Instant::now()));
            connect_span = tally.span_id();
            on_session = 0;
        }
        if one_request(&mut session, pool.take(), epoch, fresh, connect_span, tally).is_none() {
            return Ok(());
        }
        written += 1;
        on_session += 1;
        if let Some(think) = think {
            std::thread::sleep(think);
        }
    }
    session.quit();
    Ok(())
}

/// Windowed flood: keeps `window` requests in flight until `stop`, then
/// drains. Replies come back in request order, so a FIFO pairs them.
pub fn flood(
    addr: SocketAddr,
    pool: &mut Pool<'_>,
    epoch: Instant,
    stop: Stop<'_>,
    window: usize,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut session = Session::connect(addr)?;
    let mut in_flight: VecDeque<(&Request, Instant)> = VecDeque::with_capacity(window);
    let mut batch: Vec<u8> = Vec::with_capacity(window * 32);
    let mut written = 0u64;
    loop {
        if in_flight.len() < window && !stop.reached(written) {
            batch.clear();
            let write_start = Instant::now();
            while in_flight.len() < window && !matches!(stop, Stop::After(n) if written >= n) {
                let request = pool.take();
                tally.attempt(request);
                batch.extend_from_slice(request.line.as_bytes());
                in_flight.push_back((request, write_start));
                written += 1;
            }
            if session.send(&batch).is_err() {
                tally.io_errors += in_flight.len() as u64;
                return Ok(());
            }
        }
        if in_flight.is_empty() {
            break;
        }
        // Block for at least one reply, then take everything that came
        // with it.
        let first = match session.read_line_blocking() {
            Ok(Some((line, _))) => line,
            Ok(None) => {
                tally.unanswered += in_flight.len() as u64;
                return Ok(());
            }
            Err(_) => {
                tally.io_errors += in_flight.len() as u64;
                return Ok(());
            }
        };
        let done = Instant::now();
        let mut line = Some(first);
        while let Some(l) = line {
            let Some((request, sent)) = in_flight.pop_front() else {
                tally.violation(format!("a reply without a request: {l:?}"));
                break;
            };
            // The common case skips tokenizing.
            let reply = if l == "OK" && request.verb == Verb::Upd {
                Reply::UpdateOk
            } else {
                classify(request, &l)
            };
            tally.reply(request, reply, done, since(sent, done), true);
            tally.span(|id| Span {
                id,
                verb: request.verb,
                due: since(epoch, sent),
                write_start: since(epoch, sent),
                write_end: since(epoch, sent),
                first_byte: since(epoch, done),
                done: since(epoch, done),
                cause: 0,
            });
            line = session.pop_line();
        }
    }
    session.quit();
    Ok(())
}

/// One request of an open-loop schedule.
pub struct Due<'a> {
    /// Nanoseconds after the stage's start.
    pub at_ns: u64,
    pub request: &'a Request,
}

struct Pending<'a> {
    request: &'a Request,
    due: Instant,
    write_start: Instant,
    write_end: Instant,
    /// Counted unanswered at its stage's end; a late reply is read off
    /// the wire and dropped.
    abandoned: bool,
}

/// What an open-loop session's stages had given up on: the engine did
/// (or may have done) this work although the client counted it failed,
/// so the shutdown accounting must know.
#[derive(Debug, Clone, Copy, Default)]
pub struct Leftovers {
    /// `OK` replies that arrived after their stage ended.
    pub late_query_acks: u64,
    pub late_update_acks: u64,
    /// Requests written whose replies were never read.
    pub unread: u64,
}

/// An open-loop session that outlives its stages, so a reply that
/// arrives after its stage ended is still paired with its request.
pub struct OpenLoop<'a> {
    /// [`STAGE_PATIENCE`], unless a test shortens it.
    pub patience: Duration,
    session: Session,
    pending: VecDeque<Pending<'a>>,
    late_update_acks: u64,
    late_query_acks: u64,
    dead: bool,
}

impl<'a> OpenLoop<'a> {
    pub fn connect(addr: SocketAddr) -> io::Result<OpenLoop<'a>> {
        let mut session = Session::connect(addr)?;
        session.set_nonblocking(true)?;
        Ok(OpenLoop {
            patience: STAGE_PATIENCE,
            session,
            pending: VecDeque::new(),
            late_update_acks: 0,
            late_query_acks: 0,
            dead: false,
        })
    }

    fn drain(&mut self, epoch: Instant, tally: &mut Tally) -> io::Result<()> {
        loop {
            if self.session.fill()? == 0 {
                return Ok(());
            }
            let first_byte = Instant::now();
            while let Some(line) = self.session.pop_line() {
                let Some(p) = self.pending.pop_front() else {
                    tally.violation(format!("a reply without a request: {line:?}"));
                    continue;
                };
                let done = Instant::now();
                let reply = classify(p.request, &line);
                if p.abandoned {
                    match reply {
                        Reply::UpdateOk => self.late_update_acks += 1,
                        Reply::QueryOk { .. } => self.late_query_acks += 1,
                        _ => {}
                    }
                    continue;
                }
                tally.reply(p.request, reply, done, since(p.due, done), true);
                tally.span(|id| Span {
                    id,
                    verb: p.request.verb,
                    due: since(epoch, p.due),
                    write_start: since(epoch, p.write_start),
                    write_end: since(epoch, p.write_end),
                    first_byte: since(epoch, first_byte),
                    done: since(epoch, done),
                    cause: 0,
                });
            }
        }
    }

    /// Runs one stage: writes every request at its due time, reads
    /// replies in between, and gives the last ones `patience` to
    /// arrive.
    pub fn stage(
        &mut self,
        schedule: &[Due<'a>],
        epoch: Instant,
        start: Instant,
        tally: &mut Tally,
    ) {
        let Some(last) = schedule.last() else { return };
        let give_up = start + Duration::from_nanos(last.at_ns) + self.patience;
        let mut next = 0usize;
        let mut batch: Vec<u8> = Vec::with_capacity(1 << 12);
        while !self.dead {
            let now = Instant::now();
            let due_now = |i: usize| {
                i < schedule.len() && start + Duration::from_nanos(schedule[i].at_ns) <= now
            };
            if due_now(next) {
                batch.clear();
                let first = next;
                while due_now(next) {
                    batch.extend_from_slice(schedule[next].request.line.as_bytes());
                    next += 1;
                }
                let write_start = Instant::now();
                let sent = self.session.send(&batch);
                let write_end = Instant::now();
                for due in &schedule[first..next] {
                    tally.attempt(due.request);
                    let at = start + Duration::from_nanos(due.at_ns);
                    tally.late.push(since(at, write_start));
                    self.pending.push_back(Pending {
                        request: due.request,
                        due: at,
                        write_start,
                        write_end,
                        abandoned: false,
                    });
                }
                if sent.is_err() {
                    self.dead = true;
                    break;
                }
            }
            if self.drain(epoch, tally).is_err() {
                self.dead = true;
                break;
            }
            // Abandoned requests are the oldest, so the newest tells
            // whether anything of this stage is still awaited.
            let awaited = self.pending.back().is_some_and(|p| !p.abandoned);
            if next == schedule.len() && !awaited {
                return;
            }
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            let wake = match schedule.get(next) {
                Some(due) => (start + Duration::from_nanos(due.at_ns)).min(now + POLL_GRAIN),
                None => (now + POLL_GRAIN).min(give_up),
            };
            if let Some(nap) = wake.checked_duration_since(now) {
                std::thread::sleep(nap);
            }
        }
        // What is still outstanding failed: unanswered at stage end, or
        // lost with the connection. Requests never written count too.
        for p in self.pending.iter_mut().filter(|p| !p.abandoned) {
            p.abandoned = true;
            if self.dead {
                tally.io_errors += 1;
            } else {
                tally.unanswered += 1;
            }
        }
        for due in &schedule[next..] {
            tally.attempt(due.request);
            tally.io_errors += 1;
        }
    }

    /// Gives abandoned requests one last chance to be read off the wire
    /// (so the engine-side accounting can be matched), then closes.
    pub fn finish(mut self, epoch: Instant, tally: &mut Tally) -> Leftovers {
        let deadline = Instant::now() + self.patience;
        while !self.dead && !self.pending.is_empty() && Instant::now() < deadline {
            if self.drain(epoch, tally).is_err() {
                self.dead = true;
            }
            std::thread::sleep(POLL_GRAIN);
        }
        let leftovers = Leftovers {
            late_query_acks: self.late_query_acks,
            late_update_acks: self.late_update_acks,
            unread: self.pending.len() as u64,
        };
        if !self.dead {
            self.session.quit();
        }
        leftovers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Contract;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A line server that answers `OK`, stalling once for `stall` before
    /// it answers request number `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                let line = line.unwrap();
                if line == "QUIT" {
                    let _ = writer.write_all(b"BYE\n");
                    return;
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                writer.write_all(b"OK\n").unwrap();
            }
        });
        (addr, handle)
    }

    fn upd() -> Request {
        Request {
            verb: Verb::Upd,
            line: "UPD S0001 10.00 5\n".into(),
            contract: None,
        }
    }

    #[test]
    fn a_stall_shows_in_every_later_requests_latency() {
        // 100 requests, one every millisecond; the server stalls 50 ms
        // before answering request 10. An open loop keeps sending, so
        // requests 10..=59 were all due while the server slept and each
        // must report the share of the stall it sat through: no
        // coordinated omission.
        let stall = Duration::from_millis(50);
        let (addr, server) = stalling_server(10, stall);
        let request = upd();
        let schedule: Vec<Due<'_>> = (0..100u64)
            .map(|i| Due {
                at_ns: i * 1_000_000,
                request: &request,
            })
            .collect();
        let mut tally = Tally::new(true);
        let mut open = OpenLoop::connect(addr).unwrap();
        let epoch = Instant::now();
        open.stage(&schedule, epoch, epoch, &mut tally);
        open.finish(epoch, &mut tally);
        server.join().unwrap();

        assert_eq!(
            (tally.attempted, tally.ok_updates, tally.failed()),
            (100, 100, 0)
        );
        let mut spans = tally.spans.clone();
        spans.sort_by_key(|s| s.due);
        let latency_ms = |i: usize| (spans[i].done - spans[i].due) as f64 / 1e6;
        assert!(
            latency_ms(5) < 10.0,
            "before the stall: {} ms",
            latency_ms(5)
        );
        for i in 10..60 {
            // Request i was due i-10 ms into the 50 ms stall.
            let floor = 50.0 - (i - 10) as f64 - 2.0;
            assert!(
                latency_ms(i) >= floor,
                "request {i}: {} ms < {floor} ms",
                latency_ms(i)
            );
        }
        // And the generator itself kept to its schedule meanwhile.
        assert!(tally.late.percentile_us(0.9).unwrap() < 1_000.0);
    }

    #[test]
    fn closed_loop_would_hide_the_same_stall() {
        // The contrast that motivates the open loop: with one request in
        // flight only the stalled request itself sees the 50 ms.
        let (addr, server) = stalling_server(10, Duration::from_millis(50));
        let requests = vec![upd()];
        let mut pool = Pool::new(&requests);
        let mut tally = Tally::new(true);
        let epoch = Instant::now();
        closed_loop(
            addr,
            &mut pool,
            epoch,
            Stop::At(epoch + Duration::from_millis(120)),
            None,
            None,
            &mut tally,
        )
        .unwrap();
        server.join().unwrap();
        let slow = tally
            .spans
            .iter()
            .filter(|s| s.done - s.due > 25_000_000)
            .count();
        assert_eq!(slow, 1);
    }

    #[test]
    fn unanswered_and_refused_requests_count_as_failed_and_earn_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut lines = BufReader::new(stream).lines();
            lines.next();
            writer
                .write_all(b"OK price=1.00 rt=0.01ms uu=0 qos=20.00 qod=30.00\n")
                .unwrap();
            lines.next();
            writer.write_all(b"ERR overloaded\n").unwrap();
            // The third request is never answered.
            for _ in lines {}
        });
        let contract = Contract::step_on_wire(20.0, 50.0, 30.0, 1);
        let request = Request {
            verb: Verb::Get,
            line: format!("GET S0001{}\n", contract.clause()),
            contract: Some(contract),
        };
        let schedule: Vec<Due<'_>> = (0..3u64)
            .map(|i| Due {
                at_ns: i * 1_000_000,
                request: &request,
            })
            .collect();
        let mut tally = Tally::new(false);
        let mut open = OpenLoop::connect(addr).unwrap();
        open.patience = Duration::from_millis(200);
        let epoch = Instant::now();
        open.stage(&schedule, epoch, epoch, &mut tally);
        let pending = open.finish(epoch, &mut tally).unread;
        server.join().unwrap();
        assert_eq!(
            (
                tally.attempted,
                tally.ok_queries,
                tally.refused,
                tally.unanswered
            ),
            (3, 1, 1, 1)
        );
        assert_eq!(tally.failed(), 2);
        assert_eq!(pending, 1);
        assert_eq!(tally.within_rtmax, 1);
        assert_eq!((tally.profit_gained, tally.profit_offered), (50.0, 150.0));
    }
}
