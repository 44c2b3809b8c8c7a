//! The TCP listener: one thread per connection over a shared engine
//! handle.
//!
//! Overload behavior is explicit: a full engine admission queue answers
//! `ERR overloaded`, a dead engine `ERR unavailable`, an expired query
//! `ERR expired`, a query still unanswered after [`QUERY_WAIT`] (10 s)
//! `ERR timeout`, and a connection past the cap is told `ERR busy` and
//! closed. A connection is closed to reclaim its thread when it sends
//! nothing for `idle_timeout`, or when a reply it will not read stays
//! unwritten that long.
//!
//! Every shard runs as a cluster. With [`ServerConfig::repl_ship`] each
//! shard also serves its WAL to replicas; with [`ServerConfig::replicas`]
//! each shard follows its own copy of every listed replica, routes reads
//! through the QC-aware degradation ladder (cheapest qualifying replica,
//! then the primary, whose full inbox answers `ERR overloaded`) and fails
//! over to the most durable replica when its primary is lost.

use crate::protocol::{parse, Request};
use crate::status::{self, Snapshot};
use quts_db::{QueryOp, QueryResult, StockId, Store, Trade};
use quts_engine::{
    merge_shard_stats, EngineConfig, LiveStats, QueryError, QueryReply, ReplicaConfig, ShardConfig,
    ShardedEngine, ShardedHandle, ShipConfig, SubmitError, TraceConfig, QUERY_WAIT,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Close connections that stay silent this long, or that leave a
    /// reply unread this long; `None` waits forever.
    pub idle_timeout: Option<Duration>,
    /// Maximum simultaneous connections; excess clients get `ERR busy`
    /// and are disconnected.
    pub max_connections: usize,
    /// Serve each shard's WAL to replicas on this listener (shard `k`
    /// binds port `p + k` for a fixed port `p`). Requires
    /// `engine.durability` (the shipped stream IS the durable WAL).
    pub repl_ship: Option<ShipConfig>,
    /// The replicas every shard starts, follows, routes reads over and
    /// fails over to; requires `repl_ship`. Above one shard, shard `k`'s
    /// copy lives in `<dir>/shard<k>` as `shard<k>-<name>`.
    pub replicas: Vec<ReplicaConfig>,
    /// Number of engine shards behind the server's [`ShardedEngine`]:
    /// per-shard QUTS schedulers and WAL streams, with cross-shard
    /// aggregates served by the 2PL coordinator. `1` (the default) is
    /// the same engine with one shard — one scheduler, nothing spans,
    /// and the durability directory is the flat single-engine layout.
    pub shards: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("static address"),
            // Spans level feeds the `METRICS` histograms; its overhead is
            // a handful of histogram increments per committed query.
            engine: EngineConfig::default().with_trace(TraceConfig::spans()),
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections: 1024,
            repl_ship: None,
            replicas: Vec::new(),
            shards: 1,
        }
    }
}

/// A running QUTS web-database server.
pub struct Server {
    engine: ShardedEngine,
    addr: SocketAddr,
    acceptor: std::thread::JoinHandle<()>,
    shared: Arc<Shared>,
}

struct Shared {
    engine: ShardedHandle,
    symbols: HashMap<String, StockId>,
    trade_seq: AtomicU64,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    active_connections: AtomicUsize,
    /// Set by [`Server::shutdown`]; the acceptor stops on it.
    shutdown: AtomicBool,
}

/// Holds one slot in the connection cap; releases it on drop (however
/// the connection thread exits).
struct ConnGuard {
    shared: Arc<Shared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::AcqRel);
    }
}

impl Server {
    /// Starts an engine over `store` and serves it on `config.addr`.
    /// With `engine.durability`, every shard opens its directory as
    /// [`ShardedEngine::try_start`] does: a fresh one is initialised from
    /// `store`, and one a server stopped is recovered — the server
    /// restarts on its own data, with its replicas, and `store` only
    /// names the symbols it must hold.
    ///
    /// # Errors
    /// Fails if an address cannot be bound or a replica cannot start;
    /// `InvalidInput` for zero shards, `repl_ship` without
    /// `engine.durability` (there is no WAL to ship), or replicas
    /// without `repl_ship` (there is nothing to follow); `WouldBlock`
    /// while another engine writes a shard's directory; `InvalidData`
    /// when the directory is laid out for another shard count or holds
    /// other symbols than `store`, or when a replica directory is at a
    /// higher term than its primary's. That last is what a failover
    /// leaves, with the newest acked writes in the replica directory,
    /// and also what a promotion rolled back after its term bump
    /// leaves, with the primary directory current; the error names
    /// both cases.
    pub fn start(store: Store, config: ServerConfig) -> io::Result<Server> {
        let symbols: HashMap<String, StockId> = store
            .iter()
            .map(|(id, rec)| (rec.symbol().to_ascii_uppercase(), id))
            .collect();
        // A listener over an engine without durability refuses to start
        // with `InvalidInput` itself: there is no WAL to ship.
        let refusal = if config.shards == 0 {
            Some("shards must be at least 1")
        } else if config.repl_ship.is_none() && !config.replicas.is_empty() {
            Some("replicas require repl_ship (there is no WAL stream to follow)")
        } else {
            None
        };
        if let Some(why) = refusal {
            return Err(io::Error::new(ErrorKind::InvalidInput, why));
        }
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let engine = ShardedEngine::try_start(
            store,
            ShardConfig {
                ship: config.repl_ship,
                replicas: config.replicas,
                ..ShardConfig::new(config.shards).with_engine(config.engine)
            },
        )?;
        let shared = Arc::new(Shared {
            engine: engine.handle(),
            symbols,
            trade_seq: AtomicU64::new(0),
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections,
            active_connections: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let server_shared = Arc::clone(&shared);

        let acceptor = std::thread::Builder::new()
            .name("quts-server-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    match conn {
                        Ok(stream) => accept_one(stream, &shared),
                        // An accept error (out of descriptors, say) lasts
                        // until something closes; back off, don't spin.
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
            .expect("spawn acceptor");

        Ok(Server {
            engine,
            addr,
            acceptor,
            shared: server_shared,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shard 0's current replication listener, when `repl_ship` is
    /// enabled — where a replica of shard 0 connects. It moves with a
    /// failover.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.engine.cluster(0).ship_addr()
    }

    /// Engine statistics snapshot, merged over shards (see
    /// [`merge_shard_stats`]; with one shard, that shard's snapshot).
    pub fn stats(&self) -> LiveStats {
        merge_shard_stats(&self.shared.engine.shard_stats())
    }

    /// Stops accepting, stops every shard's cluster (replicas, listener,
    /// then the drained primary), and returns final statistics, merged
    /// over shards.
    pub fn shutdown(self) -> LiveStats {
        self.shared.shutdown.store(true, Ordering::Release);
        // One connection returns the acceptor from `accept`; it reads the
        // flag, stored above, before it would serve the connection.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(Ipv4Addr::LOCALHOST.into());
        }
        let _ = TcpStream::connect(wake);
        let _ = self.acceptor.join();
        merge_shard_stats(&self.engine.shutdown())
    }
}

fn accept_one(mut stream: TcpStream, shared: &Arc<Shared>) {
    if shared
        .active_connections
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < shared.max_connections).then_some(n + 1)
        })
        .is_err()
    {
        let _ = writeln!(stream, "ERR busy");
        return;
    }
    // The guard moves into the thread and releases the slot as it ends.
    let guard = ConnGuard {
        shared: Arc::clone(shared),
    };
    let _ = std::thread::Builder::new()
        .name("quts-server-conn".into())
        .spawn(move || {
            let _ = serve_connection(stream, &guard.shared);
        });
}

/// Longest request line the server buffers, terminator excluded — more
/// than 100× the longest legal `CMP`.
const MAX_LINE: usize = 64 * 1024;

fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // Both bounds live on the socket, so the clone below shares them: a
    // client that stops reading fails the blocked reply write and the
    // connection ends like an idle one.
    stream.set_read_timeout(shared.idle_timeout)?;
    stream.set_write_timeout(shared.idle_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Bounded, or a client that never sends `\n` grows this buffer
        // until the server is out of memory.
        let mut bounded = (&mut reader).take(MAX_LINE as u64 + 1);
        match bounded.read_until(b'\n', &mut buf) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            // Read timeout: the connection sat idle too long; close it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        if buf.ends_with(b"\n") {
            buf.pop();
        } else if buf.len() > MAX_LINE {
            writeln!(writer, "ERR line too long")?;
            return Ok(());
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse(line) {
            Err(e) => format!("ERR {e}"),
            Ok(Request::Quit) => {
                writeln!(writer, "BYE")?;
                return Ok(());
            }
            Ok(request) => handle(request, shared),
        };
        writeln!(writer, "{response}")?;
    }
}

fn handle(request: Request, shared: &Shared) -> String {
    match request {
        Request::Get { symbol, qc } => match shared.symbols.get(&symbol) {
            Some(&id) => run_query(QueryOp::Lookup(id), qc, shared),
            None => format!("ERR unknown symbol {symbol}"),
        },
        Request::Avg { symbol, window, qc } => match shared.symbols.get(&symbol) {
            Some(&stock) => run_query(QueryOp::MovingAverage { stock, window }, qc, shared),
            None => format!("ERR unknown symbol {symbol}"),
        },
        Request::Cmp { symbols, qc } => {
            let mut ids = Vec::with_capacity(symbols.len());
            for s in &symbols {
                match shared.symbols.get(s) {
                    Some(&id) => ids.push(id),
                    None => return format!("ERR unknown symbol {s}"),
                }
            }
            run_query(QueryOp::Compare(ids), qc, shared)
        }
        Request::Upd {
            symbol,
            price,
            volume,
        } => match shared.symbols.get(&symbol) {
            Some(&stock) => {
                let seq = shared.trade_seq.fetch_add(1, Ordering::Relaxed);
                let trade = Trade {
                    stock,
                    price,
                    volume,
                    trade_time_ms: seq,
                };
                match shared.engine.submit_update(trade) {
                    Ok(()) => "OK".into(),
                    Err(e) => submit_error(e),
                }
            }
            None => format!("ERR unknown symbol {symbol}"),
        },
        // Each status verb reads one snapshot, taken for this request.
        Request::Stats => status::stats(&Snapshot::take(&shared.engine)),
        Request::Metrics => status::metrics(&Snapshot::take(&shared.engine)),
        Request::Repl => status::repl(&Snapshot::take(&shared.engine)),
        Request::Flight => render_flight(shared),
        Request::Quit => unreachable!("handled by the connection loop"),
    }
}

/// Renders the `FLIGHT` response: every shard's live flight-recorder
/// contents (its decision ring plus 1-second timeseries; trace level
/// `Full` only) in the same JSONL encoding the supervisor dumps on a
/// crash, one shard after another in shard-id order, `# EOF`-terminated.
fn render_flight(shared: &Shared) -> String {
    let engine = &shared.engine;
    let snapshots: Vec<String> = (0..engine.map().shards())
        .filter_map(|k| engine.shard_handle(k).flight_snapshot())
        .collect();
    if snapshots.is_empty() {
        return "ERR flight recorder disabled".into();
    }
    let mut lines: Vec<&str> = snapshots
        .iter()
        .map(|jsonl| jsonl.trim_end())
        .filter(|jsonl| !jsonl.is_empty())
        .collect();
    lines.push("# EOF");
    lines.join("\n")
}

fn submit_error(e: SubmitError) -> String {
    match e {
        SubmitError::QueueFull => "ERR overloaded".into(),
        SubmitError::EngineDown => "ERR unavailable".into(),
    }
}

fn render_reply(reply: &QueryReply) -> String {
    let payload = match &reply.result {
        QueryResult::Price(p) => format!("price={p:.2}"),
        QueryResult::Average(a) => format!("avg={a:.2}"),
        QueryResult::Spread { min, max, spread } => {
            format!("min={min:.2} max={max:.2} spread={spread:.2}")
        }
        QueryResult::Value(v) => format!("value={v:.2}"),
    };
    format!(
        "OK {payload} rt={:.2}ms uu={} qos={:.2} qod={:.2}",
        reply.rt_ms, reply.staleness, reply.qos, reply.qod
    )
}

fn run_query(op: QueryOp, qc: quts_qc::QualityContract, shared: &Shared) -> String {
    // The sharded handle sends a single-shard query down its shard's
    // read ladder (a qualifying replica, else the current primary) and
    // runs spanning aggregates through the cross-shard 2PL coordinator.
    let ticket = match shared.engine.submit_query(op, qc) {
        Ok(ticket) => ticket,
        Err(e) => return submit_error(e),
    };
    match ticket.recv_timeout(QUERY_WAIT) {
        Ok(reply) => render_reply(&reply),
        Err(QueryError::Expired) => "ERR expired".into(),
        Err(QueryError::EngineDown) => "ERR unavailable".into(),
        Err(QueryError::Timeout) => "ERR timeout".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        /// Fallible connect: wire errors come back as `io::Error`
        /// instead of a panic, so callers can retry.
        fn try_connect(addr: SocketAddr) -> io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            Ok(Client {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            })
        }

        fn connect(addr: SocketAddr) -> Client {
            Client::try_connect(addr).expect("connect")
        }

        /// Fallible request/response round trip.
        fn try_send(&mut self, line: &str) -> io::Result<String> {
            writeln!(self.writer, "{line}")?;
            self.try_read()
        }

        /// Fallible single-line read. An EOF (server closed the
        /// connection) is an `UnexpectedEof` error, not an empty string.
        fn try_read(&mut self) -> io::Result<String> {
            let mut response = String::new();
            if self.reader.read_line(&mut response)? == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Ok(response.trim_end().to_string())
        }

        fn send(&mut self, line: &str) -> String {
            self.try_send(line).expect("request round trip")
        }

        fn read(&mut self) -> String {
            self.try_read().expect("read response line")
        }

        /// Sends a line and reads the multi-line response up to and
        /// including the `# EOF` terminator.
        fn send_multiline(&mut self, line: &str) -> Vec<String> {
            writeln!(self.writer, "{line}").expect("send");
            let mut lines = Vec::new();
            loop {
                let l = self.read();
                let done = l == "# EOF";
                lines.push(l);
                if done {
                    return lines;
                }
            }
        }
    }

    /// One request over a fresh connection, retrying `ERR busy` (and
    /// accept races, which surface as IO errors) on the shared jittered
    /// exponential backoff — the polite client a capped server expects.
    fn request_with_retry(addr: SocketAddr, request: &str) -> String {
        let mut backoff =
            quts_engine::Backoff::new(Duration::from_millis(2), Duration::from_millis(50));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match Client::try_connect(addr).and_then(|mut c| c.try_send(request)) {
                // A capped server answers the first read `ERR busy`;
                // anything else is the real response.
                Ok(r) if r != "ERR busy" => return r,
                Ok(_busy) => {}
                // Reset/EOF while racing the acceptor: same as busy.
                Err(_) => {}
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server stayed busy for 10s"
            );
            std::thread::sleep(backoff.next_sleep());
        }
    }

    fn test_store() -> Store {
        let mut store = Store::new();
        store.insert("IBM", 120.0);
        store.insert("AOL", 55.0);
        store.insert("GE", 52.0);
        store
    }

    fn test_server_with(config: ServerConfig) -> Server {
        Server::start(test_store(), config).expect("start")
    }

    fn test_server() -> Server {
        test_server_with(ServerConfig::default())
    }

    /// The metric names clients may depend on; renames are breaking.
    const STABLE_METRICS: &[&str] = &[
        "quts_queries_submitted_total",
        "quts_queries_committed_total",
        "quts_profit_gained",
        "quts_profit_offered",
        "quts_rho",
        "quts_adaptations_total",
        "quts_rho_history_truncated_total",
        "quts_queue_depth",
        "quts_updates_applied_total",
        "quts_updates_invalidated_total",
        "quts_shed",
        "quts_engine_restarts_total",
        "quts_wal_appended_total",
        "quts_wal_io_errors_total",
        "quts_snapshots_written_total",
        "quts_snapshot_last_lsn",
        "quts_recovery_replayed_updates",
        "quts_wal_truncated_bytes",
        "quts_wal_fsync_total",
        "quts_group_commits_total",
        "quts_group_commit_buffered",
        "quts_group_commit_batch_size",
        "quts_group_commit_wait_us",
        "quts_response_us",
        "quts_queue_wait_us",
        "quts_service_us",
        "quts_staleness",
        "quts_update_delay_us",
        "quts_wal_last_lsn",
    ];

    #[test]
    fn metrics_exposition_over_the_wire() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM QOS 5 1000 QOD 2 1").starts_with("OK"));
        assert_eq!(c.send("UPD IBM 121.5 300"), "OK");
        // The update is acked at admission and applied later.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let lines = loop {
            let lines = c.send_multiline("METRICS");
            if lines.iter().any(|l| l == "quts_updates_applied_total 1") {
                break lines;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the update was never applied"
            );
            std::thread::yield_now();
        };
        assert_eq!(lines.last().map(String::as_str), Some("# EOF"));
        // Every line parses: a comment, or `name{labels}? value`.
        for line in &lines {
            if line == "# EOF" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
                "bad metric name in: {line}"
            );
        }
        let text = lines.join("\n");
        for name in STABLE_METRICS {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing metric {name}"
            );
        }
        // The headline samples a scraper would alert on.
        assert!(text.contains("quts_queries_committed_total 1"));
        assert!(text.contains("quts_updates_applied_total 1"));
        assert!(text.contains("quts_queue_depth{class=\"query\"}"));
        assert!(text.contains("quts_queue_depth{class=\"update\"}"));
        assert!(text.contains("quts_shed{reason=\"queue_full\"} 0"));
        assert!(text.contains("quts_shed{reason=\"restart_lost_update\"} 0"));
        assert!(text.contains("quts_rho 0.75"));
        // Durability is off on the default server engine, so the
        // recovery counters expose zeroes — present, not absent.
        assert!(text.contains("quts_recovery_replayed_updates 0"));
        assert!(text.contains("quts_wal_truncated_bytes 0"));
        assert!(text.contains("quts_snapshot_last_lsn 0"));
        // Spans are on by default, so the histograms carry the commit.
        assert!(text.contains("quts_response_us_count 1"));
        assert!(text.contains("quts_response_us_bucket{le=\"+Inf\"} 1"));

        // The connection still serves single-line requests afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    /// An 8-symbol store (`S<i>` at `100 + i`), so a 2-shard partition
    /// is guaranteed to put traffic on both sides; returns the server
    /// plus one symbol from each shard.
    fn sharded_test_server(config: ServerConfig) -> (Server, Vec<String>) {
        let mut store = Store::new();
        for i in 0..8u32 {
            store.insert(format!("S{i}"), 100.0 + i as f64);
        }
        let map = quts_engine::ShardMap::new(8, config.shards);
        let per_shard: Vec<String> = (0..config.shards)
            .map(|k| format!("S{}", map.members(k)[0].0))
            .collect();
        let server = Server::start(store, config).expect("server starts");
        (server, per_shard)
    }

    /// Polls `GET symbol` until the reply starts with `expected`; returns
    /// how many reads that took (each one a committed query).
    fn await_reply(c: &mut Client, symbol: &str, expected: &str) -> u64 {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut reads = 0;
        loop {
            let r = c.send(&format!("GET {symbol}"));
            reads += 1;
            if r.starts_with(expected) {
                return reads;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "never saw {expected}: {r}"
            );
            std::thread::yield_now();
        }
    }

    /// Every symbol of [`sharded_test_server`]'s store, per shard.
    fn shard_symbols(shards: u32) -> Vec<Vec<String>> {
        let map = quts_engine::ShardMap::new(8, shards);
        (0..shards)
            .map(|k| {
                map.members(k)
                    .iter()
                    .map(|id| format!("S{}", id.0))
                    .collect()
            })
            .collect()
    }

    /// The whole wire surface in one session: the same requests, the
    /// same answers and the same accounting whatever the shard count.
    fn wire_session(shards: u32) {
        let (server, per_shard) = sharded_test_server(ServerConfig {
            shards,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        // Queries answered by a shard's own scheduler (everything but
        // a spanning CMP) — what the merged `committed` must equal.
        let mut committed_in_shards = 0;

        let r = c.send("GET S0 QOS 5 1000 QOD 2 1");
        assert!(r.starts_with("OK price=100.00"), "{r}");
        assert!(r.contains("qos=5.00"), "{r}");
        committed_in_shards += 1;
        for i in 1..8 {
            let r = c.send(&format!("GET S{i}"));
            assert!(r.starts_with(&format!("OK price=10{i}.00")), "{r}");
            committed_in_shards += 1;
        }

        // S0 lives somewhere; move it and read the update back.
        assert_eq!(c.send("UPD S0 150.5 300"), "OK");
        committed_in_shards += await_reply(&mut c, "S0", "OK price=150.50");
        let r = c.send("AVG S0 2");
        assert!(r.starts_with("OK avg=125.25"), "{r}");
        committed_in_shards += 1;

        // One symbol per shard: above one shard this CMP spans and runs
        // through the 2PL coordinator; with one shard it is a plain
        // query of that shard.
        let spans = shards > 1;
        let r = c.send(&format!("CMP {} S7", per_shard.join(" ")));
        assert!(r.starts_with("OK min="), "{r}");
        assert!(r.contains("max=150.50"), "{r}");
        committed_in_shards += u64::from(!spans);

        let r = c.send("STATS");
        assert!(r.contains("applied=1"), "{r}");
        assert!(r.contains("rejected=0"), "{r}");
        assert!(r.contains("restarts=0"), "{r}");
        assert!(r.contains(&format!("shards={shards}")), "{r}");

        let text = c.send_multiline("METRICS").join("\n");
        assert!(text.contains(&format!("quts_shards {shards}\n")), "{text}");
        for k in 0..shards {
            assert!(
                text.contains(&format!("quts_shard_rho{{shard=\"{k}\"}}")),
                "missing per-shard rho for shard {k}"
            );
            assert!(
                text.contains(&format!("quts_shard_up{{shard=\"{k}\"}} 1")),
                "shard {k} must report up"
            );
        }
        assert!(
            text.contains(&format!(
                "quts_cross_shard_txns_total{{outcome=\"committed\"}} {}",
                u64::from(spans)
            )),
            "{text}"
        );
        for family in [
            "quts_shard_cross_locks_total",
            "quts_shard_cross_lock_timeouts_total",
        ] {
            assert!(text.contains(family), "missing {family}:\n{text}");
        }

        assert_eq!(c.send("QUIT"), "BYE");
        assert_eq!(server.engine.handle().shard_stats().len(), shards as usize);
        let stats = server.shutdown();
        assert_eq!(stats.aggregates.committed, committed_in_shards);
        assert_eq!(stats.updates_applied, 1);
    }

    #[test]
    fn wire_session_with_one_shard() {
        wire_session(1);
    }

    #[test]
    fn wire_session_with_two_shards() {
        wire_session(2);
    }

    #[test]
    fn zero_shards_and_replicas_without_shipping_are_refused() {
        let mut store = Store::new();
        store.insert("IBM", 120.0);
        let dir = std::env::temp_dir().join("quts-server-refused-replica");
        for config in [
            ServerConfig {
                shards: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                replicas: vec![quts_engine::ReplicaConfig::new("r1", dir)],
                ..ServerConfig::default()
            },
        ] {
            match Server::start(store.clone(), config) {
                Err(err) => assert_eq!(err.kind(), ErrorKind::InvalidInput),
                Ok(_) => panic!("the configuration must be refused"),
            }
        }
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET MSFT").starts_with("ERR unknown symbol"));
        assert!(c.send("BOGUS").starts_with("ERR"));
        assert!(c.send("GET IBM QOS 1").starts_with("ERR"));
        // The connection still works afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = test_server();
        let addr = server.addr();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    for i in 0..10 {
                        let r = c.send(&format!("GET IBM QOS 1 1000 QOD 1 {}", i + 1));
                        assert!(r.starts_with("OK"), "{r}");
                        assert_eq!(c.send("UPD AOL 60.0 10"), "OK");
                    }
                    c.send("QUIT");
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.aggregates.committed, 40);
        assert_eq!(stats.updates_applied + stats.updates_invalidated, 40);
    }

    #[test]
    fn connection_cap_answers_busy() {
        let server = test_server_with(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let mut first = Client::connect(server.addr());
        // A round-trip guarantees the acceptor has registered the slot.
        assert!(first.send("GET IBM").starts_with("OK"));

        let mut second = Client::connect(server.addr());
        assert_eq!(second.read(), "ERR busy");

        // Releasing the slot lets the next client in; the retry helper
        // absorbs the window where the acceptor hasn't freed it yet.
        assert_eq!(first.send("QUIT"), "BYE");
        let r = request_with_retry(server.addr(), "GET IBM");
        assert!(r.starts_with("OK"), "{r}");
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_leaves_a_cleanly_recoverable_directory() {
        use quts_engine::DurabilityConfig;
        let dir = std::env::temp_dir().join(format!("quts-server-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = test_server_with(ServerConfig {
            engine: EngineConfig::default().with_durability(DurabilityConfig::new(&dir)),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("UPD IBM 150.25 10"), "OK");
        assert_eq!(c.send("UPD AOL 61.5 5"), "OK");
        assert_eq!(c.send("QUIT"), "BYE");

        // Graceful shutdown drains the backlog, flushes the WAL, and
        // publishes a final snapshot.
        let stats = server.shutdown();
        assert_eq!(stats.wal_appended, 2);
        assert!(stats.snapshots_written >= 1, "clean-shutdown snapshot");

        // The directory recovers with an empty replay and the applied
        // prices — nothing was owed at shutdown, nothing is owed now.
        let rec = quts_db::snapshot::recover(&dir).expect("recoverable");
        assert_eq!(rec.replayed, 0);
        assert!(rec.pending.is_empty());
        let ibm = rec.store.id_of("IBM").unwrap();
        let aol = rec.store.id_of("AOL").unwrap();
        assert_eq!(rec.store.record(ibm).price(), 150.25);
        assert_eq!(rec.store.record(aol).price(), 61.5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn busy_clients_retry_until_admitted() {
        // Six workers share two connection slots: every request must
        // eventually land through backoff + retry, none may panic on
        // the `ERR busy` turn-away.
        let server = test_server_with(ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let workers: Vec<_> = (0..6)
            .map(|w| {
                std::thread::spawn(move || {
                    for i in 0..3u32 {
                        let r = request_with_retry(
                            addr,
                            &format!("GET IBM QOS 1 1000 QOD 1 {}", (w + i) % 5 + 1),
                        );
                        assert!(r.starts_with("OK"), "{r}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.aggregates.committed, 18, "all retried requests land");
    }

    #[test]
    fn replication_requires_a_durable_engine() {
        let mut store = Store::new();
        store.insert("IBM", 120.0);
        let result = Server::start(
            store,
            ServerConfig {
                repl_ship: Some(quts_engine::ShipConfig::default()),
                ..ServerConfig::default()
            },
        );
        match result {
            Err(err) => assert_eq!(err.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("shipping without a WAL must be rejected"),
        }
    }

    #[test]
    fn repl_without_replication_is_a_polite_error() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("REPL"), "ERR replication disabled");
        // The connection still serves requests afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    #[test]
    fn flight_without_recorder_is_a_polite_error() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("FLIGHT"), "ERR flight recorder disabled");
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    #[test]
    fn flight_serves_the_live_recorder_as_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "quts-server-flight-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let server = test_server_with(ServerConfig {
            engine: EngineConfig::default()
                .with_trace(TraceConfig::full())
                .with_flight_recorder(&dir),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM QOS 5 1000 QOD 2 1").starts_with("OK"));
        assert_eq!(c.send("UPD IBM 121.5 300"), "OK");
        // The update is acked at admission and recorded as it applies.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let lines = loop {
            let lines = c.send_multiline("FLIGHT");
            let events = lines
                .iter()
                .filter(|l| l.starts_with("{\"rec\":\"event\","))
                .count();
            if events >= 2 {
                break lines;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "query + update events expected: {lines:?}"
            );
            std::thread::yield_now();
        };
        assert_eq!(lines.last().map(String::as_str), Some("# EOF"));
        for line in &lines {
            if line == "# EOF" {
                continue;
            }
            assert!(
                line.starts_with("{\"rec\":\"event\",") || line.starts_with("{\"rec\":\"series\","),
                "unparseable flight line: {line}"
            );
            assert!(line.ends_with('}'), "truncated flight line: {line}");
        }

        // The connection still serves single-line requests afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_answers_for_every_shard() {
        let dir =
            std::env::temp_dir().join(format!("quts-server-flight-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (server, per_shard) = sharded_test_server(ServerConfig {
            shards: 2,
            engine: EngineConfig::default()
                .with_trace(TraceConfig::full())
                .with_flight_recorder(&dir),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        for (k, symbol) in per_shard.iter().enumerate() {
            assert_eq!(c.send(&format!("UPD {symbol} 15{k}.5 10")), "OK");
            await_reply(&mut c, symbol, &format!("OK price=15{k}.50"));
        }

        let lines = c.send_multiline("FLIGHT");
        assert_eq!(lines.last().map(String::as_str), Some("# EOF"));
        // Each shard's recorder numbers its own events from 0, so one
        // first event per shard means both shards answered.
        let first_events = lines
            .iter()
            .filter(|l| l.starts_with("{\"rec\":\"event\",\"seq\":0,"))
            .count();
        assert_eq!(first_events, 2, "events from both shards: {lines:?}");
        for line in &lines[..lines.len() - 1] {
            assert!(
                line.starts_with("{\"rec\":\"event\",") || line.starts_with("{\"rec\":\"series\","),
                "unparseable flight line: {line}"
            );
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scratch directory unique to the calling test thread.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "quts-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable engine under `dir` that fsyncs every update.
    fn fsync_always(dir: &std::path::Path) -> EngineConfig {
        EngineConfig::default()
            .with_trace(TraceConfig::spans())
            .with_durability(
                quts_engine::DurabilityConfig::new(dir)
                    .with_fsync(quts_engine::FsyncPolicy::Always),
            )
    }

    /// A replica that acks every frame and reconnects quickly.
    fn eager_replica(name: &str, dir: std::path::PathBuf) -> ReplicaConfig {
        ReplicaConfig::new(name, dir)
            .with_ack_every(1)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(20))
    }

    /// Polls `REPL` until it contains every one of `needles`.
    fn await_repl(c: &mut Client, needles: &[String]) -> String {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let text = c.send_multiline("REPL").join("\n");
            if needles.iter().all(|n| text.contains(n.as_str())) {
                return text;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "REPL never showed {needles:?}: {text}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn replicated_server_routes_reads_and_exposes_replica_metrics() {
        let base = scratch("repl");
        let server = test_server_with(ServerConfig {
            engine: fsync_always(&base.join("primary")),
            repl_ship: Some(ShipConfig::default()),
            replicas: vec![ReplicaConfig::new("r1", base.join("replica")).with_ack_every(1)],
            ..ServerConfig::default()
        });

        let mut c = Client::connect(server.addr());
        for i in 0..8 {
            assert_eq!(c.send(&format!("UPD IBM {} 10", 121 + i)), "OK");
        }
        // The replica acks after it applies: once the primary's registry
        // reports the whole feed, the replica's own store holds it.
        await_repl(&mut c, &["applied=8".into()]);

        // A caught-up replica (lag 0) qualifies for any contract,
        // even a zero-tolerance one: both reads ride the ladder to it.
        let r = c.send("GET IBM QOS 5 1000 QOD 5 64");
        assert!(r.starts_with("OK price=128.00"), "{r}");
        let r = c.send("GET IBM QOS 5 1000 QOD 5 1");
        assert!(r.starts_with("OK price=128.00"), "{r}");

        let text = c.send_multiline("REPL").join("\n");
        assert!(text.starts_with("OK replication primary_lsn=8"), "{text}");
        // A fresh (never-promoted) primary ships under term 0.
        assert!(
            text.contains("role primary term=0 failovers=0 failed=0 lost=0"),
            "{text}"
        );
        assert!(text.contains("router replicas=1"), "{text}");
        assert!(text.contains("routed_replica=2"), "{text}");
        assert!(text.contains("routed_primary=0"), "{text}");
        assert!(text.contains("qod_violations=0"), "{text}");
        assert!(text.contains("repoints=0"), "{text}");
        assert!(text.contains("replica name=r1"), "{text}");

        // METRICS carries the per-replica series and the routing split.
        let text = c.send_multiline("METRICS").join("\n");
        assert!(text.contains("quts_repl_term 0"), "{text}");
        assert!(text.contains("quts_fenced_frames_total 0"), "{text}");
        assert!(text.contains("quts_router_repoints_total 0"), "{text}");
        assert!(text.contains("quts_wal_last_lsn 8"), "{text}");
        assert!(
            text.contains("quts_repl_applied_lsn{replica=\"r1\"} 8"),
            "{text}"
        );
        assert!(text.contains("quts_repl_lag{replica=\"r1\"} 0"), "{text}");
        assert!(
            text.contains("quts_routed_reads_total{target=\"replica\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("quts_router_qod_violations_total 0"),
            "{text}"
        );
        assert!(
            text.contains("quts_failovers_total{outcome=\"completed\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("quts_failover_lost_replicas_total 0"),
            "{text}"
        );
        // The replication-lag histograms ride along: ack_every(1) means
        // every applied frame recorded one ship-to-ack latency sample.
        assert!(
            text.contains("# TYPE quts_repl_lag_frames histogram"),
            "{text}"
        );
        assert!(text.contains("quts_repl_apply_lag_us_count 8"), "{text}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A read the ladder sends to a full primary inbox is refused as
    /// `ERR overloaded`, like every other full queue, on a connection
    /// that goes on serving — not with the connection cap's `ERR busy`,
    /// which tells a client to reconnect.
    #[test]
    fn a_shed_routed_read_is_overloaded_and_the_connection_serves_on() {
        let base = scratch("shed");
        let server = test_server_with(ServerConfig {
            engine: EngineConfig {
                synthetic_query_cost: Some(Duration::from_millis(100)),
                ..fsync_always(&base.join("primary")).with_queue_capacity(4)
            },
            // The bootstrap snapshot crosses before the partition engages;
            // no frame does, so the replica stays at LSN 0.
            repl_ship: Some(
                ShipConfig::default()
                    .with_fault(quts_engine::LinkFaultPlan::default().partition_after(0)),
            ),
            replicas: vec![eager_replica("r1", base.join("r1"))],
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("UPD IBM 130 10"), "OK");
        // One applied update the replica never receives: it lags by one,
        // and a zero-tolerance read needs the primary.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !c.send("STATS").contains(" applied=1 ") {
            assert!(std::time::Instant::now() < deadline, "update never applied");
            std::thread::sleep(Duration::from_millis(5));
        }

        // A burst of reads, one per connection, written before any reply
        // is read: while the scheduler serves one (100 ms), the rest fill
        // the four inbox slots and the overflow is shed. A burst that
        // lands between two reads is all answered; send another.
        let mut conns: Vec<Client> = (0..8).map(|_| Client::connect(server.addr())).collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let shed = loop {
            for conn in &mut conns {
                writeln!(conn.writer, "GET IBM QOS 5 100000 QOD 5 1").expect("send");
            }
            let replies: Vec<String> = conns.iter_mut().map(Client::read).collect();
            for r in &replies {
                assert!(
                    r.starts_with("OK price=") || r == "ERR overloaded",
                    "{replies:?}"
                );
            }
            if let Some(k) = replies.iter().position(|r| r == "ERR overloaded") {
                break k;
            }
            assert!(std::time::Instant::now() < deadline, "no read was shed");
        };
        let r = conns[shed].send("STATS");
        assert!(r.starts_with("OK submitted="), "{r}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }

    /// Two shards, each a primary with one in-process replica: killing
    /// shard 1's primary fails that shard over to its replica while
    /// shard 0 serves on, and nothing the replicas acked durable is lost.
    #[test]
    fn failover_of_a_killed_shard_leaves_its_sibling_serving() {
        use quts_conformance::{at_most_one_primary_per_term, no_acked_loss_across_failover};
        // The scheduler panics before its 32nd transaction. It is armed
        // on both first primaries; only shard 1's traffic reaches it.
        const PANIC_AT: u64 = 32;
        let base = scratch("failover");
        let (server, _) = sharded_test_server(ServerConfig {
            shards: 2,
            engine: fsync_always(&base.join("primary"))
                .with_fault_plan(quts_engine::FaultPlan::default().panic_after(PANIC_AT)),
            repl_ship: Some(ShipConfig::default().with_heartbeat(Duration::from_millis(10))),
            replicas: vec![eager_replica("r1", base.join("r1"))],
            ..ServerConfig::default()
        });
        let symbols = shard_symbols(2);
        // Eight writes per shard, each symbol's last one at a price of
        // its own; then every shard's replica reports them durable.
        let mut c = Client::connect(server.addr());
        let mut last = HashMap::new();
        for (k, shard) in symbols.iter().enumerate() {
            for i in 0..8 {
                let symbol = &shard[i % shard.len()];
                let price = 200.0 * (k + 1) as f64 + i as f64;
                assert_eq!(c.send(&format!("UPD {symbol} {price} 10")), "OK");
                last.insert(symbol.clone(), price);
            }
        }
        await_repl(
            &mut c,
            &[
                "replica name=shard0-r1 connected=true applied=8 durable=8 ".into(),
                "replica name=shard1-r1 connected=true applied=8 durable=8 ".into(),
            ],
        );
        let floor = 8;

        // A client on shard 0 reads and writes until shard 1 has failed
        // over. Its ten writes keep shard 0 below the panic count; its
        // reads go to shard 0's caught-up replica.
        let stop = Arc::new(AtomicBool::new(false));
        let sibling = {
            let (stop, addr, shard) = (Arc::clone(&stop), server.addr(), symbols[0].clone());
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut replies = Vec::new();
                for i in 0.. {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let symbol = &shard[i % shard.len()];
                    if i < 10 {
                        replies.push(c.send(&format!("UPD {symbol} {} 10", 300 + i)));
                    }
                    replies.push(c.send(&format!("GET {symbol}")));
                    std::thread::sleep(Duration::from_millis(20));
                }
                replies
            })
        };

        // Rewrite shard 1's last prices until its primary dies and the
        // shard fails over: the count is reached on shard 1 alone.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        'kill: for round in 0.. {
            for symbol in &symbols[1] {
                let _ = c.send(&format!("UPD {symbol} {} 10", last[symbol]));
            }
            if round % 4 == 3
                && c.send_multiline("REPL").iter().any(|l| {
                    l.starts_with("role primary shard=1 term=1 failovers=1 failed=0 lost=0")
                })
            {
                break 'kill;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "shard 1 never failed over"
            );
        }
        let text = c.send_multiline("REPL").join("\n");
        assert!(
            text.contains("role primary shard=0 term=0 failovers=0 failed=0 lost=0"),
            "{text}"
        );
        stop.store(true, Ordering::Release);
        let replies = sibling.join().unwrap();
        assert!(
            replies.iter().all(|r| r.starts_with("OK")),
            "shard 0 stopped serving: {replies:?}"
        );

        // Every shard-1 symbol reads back its last price through the
        // promoted primary.
        for symbol in &symbols[1] {
            await_reply(&mut c, symbol, &format!("OK price={:.2}", last[symbol]));
        }
        for k in 0..2 {
            let cluster = server.engine.cluster(k);
            let log: Vec<(u64, String)> = cluster
                .reports()
                .into_iter()
                .map(|r| (r.term, r.promoted))
                .collect();
            assert_eq!(log.len(), k as usize, "shard {k}: {log:?}");
            at_most_one_primary_per_term(&log).expect("one primary per term");
            no_acked_loss_across_failover(floor, cluster.primary().stats().wal_last_lsn)
                .expect("the replica-acked floor survives");
        }
        assert_eq!(server.engine.cluster(1).reports()[0].promoted, "shard1-r1");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A durable server stopped and started again with the same config
    /// serves the prices it acked, not the store it was handed.
    #[test]
    fn a_durable_server_restarts_on_its_own_data() {
        let dir = scratch("restart");
        let config = ServerConfig {
            engine: fsync_always(&dir),
            ..ServerConfig::default()
        };
        let server = test_server_with(config.clone());
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("UPD IBM 150.25 10"), "OK");
        assert_eq!(c.send("UPD AOL 61.5 5"), "OK");
        assert_eq!(c.send("QUIT"), "BYE");
        server.shutdown();

        let server = test_server_with(config);
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM").starts_with("OK price=150.25"));
        assert!(c.send("GET AOL").starts_with("OK price=61.50"));
        assert!(c.send("GET GE").starts_with("OK price=52.00"));
        assert_eq!(server.stats().wal_last_lsn, 2);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `REPL` lines of two shards whose replicas hold their
    /// primaries' whole logs.
    fn caught_up(server: &Server) -> Vec<String> {
        (0..2)
            .map(|k| {
                let lsn = server.engine.cluster(k).primary().stats().wal_last_lsn;
                format!("replica name=shard{k}-r1 connected=true applied={lsn} durable={lsn} ")
            })
            .collect()
    }

    /// Two shards, each a primary with one replica, stopped once every
    /// replica holds its primary's log: the same config starts them all
    /// again — the acked prices, both replicas caught up in the read
    /// pool, and a failover monitor that promotes shard 1's replica
    /// when its primary is killed while shard 0 serves on.
    #[test]
    fn a_replicated_server_restarts_whole() {
        // Armed on every primary this config starts; only shard 1's
        // traffic after the restart reaches it.
        const PANIC_AT: u64 = 32;
        let base = scratch("restart-repl");
        let config = ServerConfig {
            shards: 2,
            engine: fsync_always(&base.join("primary"))
                .with_fault_plan(quts_engine::FaultPlan::default().panic_after(PANIC_AT)),
            repl_ship: Some(ShipConfig::default().with_heartbeat(Duration::from_millis(10))),
            replicas: vec![eager_replica("r1", base.join("r1"))],
            ..ServerConfig::default()
        };
        let symbols = shard_symbols(2);
        let (server, _) = sharded_test_server(config.clone());
        let mut c = Client::connect(server.addr());
        let mut last = HashMap::new();
        for (k, shard) in symbols.iter().enumerate() {
            for (i, symbol) in shard.iter().enumerate() {
                let price = 200.0 * (k + 1) as f64 + i as f64;
                assert_eq!(c.send(&format!("UPD {symbol} {price} 10")), "OK");
                last.insert(symbol.clone(), price);
            }
        }
        await_repl(&mut c, &caught_up(&server));
        let lsns: Vec<u64> = (0..2)
            .map(|k| server.engine.cluster(k).primary().stats().wal_last_lsn)
            .collect();
        assert_eq!(lsns.iter().sum::<u64>(), 8);
        server.shutdown();

        let (server, _) = sharded_test_server(config);
        let mut c = Client::connect(server.addr());
        for (symbol, price) in &last {
            await_reply(&mut c, symbol, &format!("OK price={price:.2}"));
        }
        let text = await_repl(&mut c, &caught_up(&server));
        assert!(text.contains("router replicas=2 "), "{text}");
        for k in 0..2 {
            let cluster = server.engine.cluster(k);
            assert_eq!(cluster.primary().stats().wal_last_lsn, lsns[k as usize]);
            let peers = cluster.stats().peers;
            assert_eq!(peers.len(), 1, "shard {k}: {peers:?}");
            // A replica that stopped caught up resumes from its own copy.
            assert_eq!(peers[0].bootstraps, 0, "shard {k}: {peers:?}");
        }

        // Kill shard 1's restarted primary: its monitor promotes the
        // replica while shard 0 serves on.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        'kill: for round in 0.. {
            for symbol in &symbols[1] {
                let _ = c.send(&format!("UPD {symbol} {} 10", last[symbol]));
            }
            if round % 4 == 3
                && c.send_multiline("REPL").iter().any(|l| {
                    l.starts_with("role primary shard=1 term=1 failovers=1 failed=0 lost=0")
                })
            {
                break 'kill;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "shard 1 never failed over"
            );
        }
        let text = c.send_multiline("REPL").join("\n");
        assert!(
            text.contains("role primary shard=0 term=0 failovers=0 failed=0 lost=0"),
            "{text}"
        );
        let sibling = &symbols[0][0];
        assert_eq!(c.send(&format!("UPD {sibling} 999 10")), "OK");
        await_reply(&mut c, sibling, "OK price=999.00");
        for symbol in &symbols[1] {
            await_reply(&mut c, symbol, &format!("OK price={:.2}", last[symbol]));
        }
        assert_eq!(server.engine.cluster(1).reports()[0].promoted, "shard1-r1");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }

    /// After a failover the shard's newest acked writes live in the
    /// promoted replica's directory: a restart on the same config would
    /// serve the deposed primary directory, so it is refused.
    #[test]
    fn a_restart_after_a_failover_is_refused() {
        const PANIC_AT: u64 = 16;
        let base = scratch("deposed");
        let (primary, replica) = (base.join("primary"), base.join("r1"));
        let config = ServerConfig {
            engine: fsync_always(&primary)
                .with_fault_plan(quts_engine::FaultPlan::default().panic_after(PANIC_AT)),
            repl_ship: Some(ShipConfig::default().with_heartbeat(Duration::from_millis(10))),
            replicas: vec![eager_replica("r1", replica.clone())],
            ..ServerConfig::default()
        };
        let server = test_server_with(config.clone());
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("UPD IBM 130 10"), "OK");
        await_repl(
            &mut c,
            &["replica name=r1 connected=true applied=1 durable=1 ".into()],
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !c
            .send_multiline("REPL")
            .iter()
            .any(|l| l.starts_with("role primary term=1 failovers=1 failed=0 lost=0"))
        {
            let _ = c.send("UPD GE 53 10");
            assert!(std::time::Instant::now() < deadline, "never failed over");
        }
        // Acked at term 1, by the promoted primary.
        assert_eq!(c.send("UPD AOL 77.5 10"), "OK");
        await_reply(&mut c, "AOL", "OK price=77.50");
        server.shutdown();
        assert_eq!(quts_db::snapshot::manifest_term(&primary), 0);
        assert_eq!(quts_db::snapshot::manifest_term(&replica), 1);

        let err = Server::start(test_store(), config)
            .err()
            .expect("a deposed primary directory is refused");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let why = err.to_string();
        assert!(why.contains(&primary.display().to_string()), "{why}");
        assert!(why.contains(&replica.display().to_string()), "{why}");
        // No engine holds either directory.
        drop(quts_db::snapshot::lock(&primary).expect("primary directory is free"));
        drop(quts_db::snapshot::lock(&replica).expect("replica directory is free"));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn a_hostile_repl_name_cannot_forge_metrics() {
        let dir = scratch("hostile");
        let server = test_server_with(ServerConfig {
            engine: EngineConfig::default()
                .with_durability(quts_engine::DurabilityConfig::new(&dir)),
            repl_ship: Some(ShipConfig::default()),
            ..ServerConfig::default()
        });
        // A hello by hand: "QUTSREPL" ‖ len u16 ‖ name ‖ resume u64 ‖ term u64.
        let name = "x\"} 1\n# EOF";
        let mut hello = b"QUTSREPL".to_vec();
        hello.extend((name.len() as u16).to_le_bytes());
        hello.extend(name.as_bytes());
        hello.extend([0; 16]);
        let mut peer = TcpStream::connect(server.repl_addr().expect("shipping")).expect("connect");
        peer.write_all(&hello).expect("send hello");
        // The listener refuses the name and closes; wait for that, but
        // no longer than 5 s (a session it accepted would stream on).
        peer.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("timeout");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut buf = [0; 4096];
        while std::time::Instant::now() < deadline {
            match peer.read(&mut buf) {
                Ok(0) => break,
                Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                _ => {}
            }
        }
        drop(peer);

        let mut c = Client::connect(server.addr());
        let lines = c.send_multiline("METRICS");
        assert!(!lines.iter().any(|l| l.contains("replica=")), "{lines:?}");
        // Nothing of the document is left to answer the next request.
        let r = c.send("STATS");
        assert!(r.starts_with("OK submitted="), "{r}");
        let repl = c.send_multiline("REPL");
        assert!(!repl.iter().any(|l| l.starts_with("replica ")), "{repl:?}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_over_long_line_is_refused_and_the_server_keeps_serving() {
        let server = test_server();
        let mut flooder = Client::connect(server.addr());
        // One byte past the cap and no newline: the server has read all
        // of it when it answers, so its close is a clean FIN.
        flooder
            .writer
            .write_all(&vec![b'G'; MAX_LINE + 1])
            .expect("send");
        assert_eq!(flooder.read(), "ERR line too long");
        let closed = flooder.try_read().expect_err("connection closed");
        assert_eq!(closed.kind(), ErrorKind::UnexpectedEof);
        // A line of exactly the cap is read whole and merely fails to parse.
        let mut c = Client::connect(server.addr());
        let at_cap = "G".repeat(MAX_LINE);
        assert!(c.send(&at_cap).starts_with("ERR unknown verb"));
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_closed() {
        let server = test_server_with(ServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM").starts_with("OK"));
        std::thread::sleep(Duration::from_millis(400));
        // The server closed the socket: the next read sees EOF.
        writeln!(c.writer, "GET IBM").expect("send");
        let mut response = String::new();
        let n = c.reader.read_line(&mut response).unwrap_or(0);
        assert_eq!(n, 0, "expected EOF after idle timeout, got {response:?}");
        server.shutdown();
    }

    #[test]
    fn a_client_that_stops_reading_is_closed_at_the_idle_timeout() {
        let server = test_server_with(ServerConfig {
            max_connections: 1,
            idle_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        });
        // Thousands of multi-kilobyte replies, none read: the socket
        // buffers fill and the server's reply write blocks.
        let mut silent = TcpStream::connect(server.addr()).expect("connect");
        silent
            .write_all("METRICS\n".repeat(4_000).as_bytes())
            .expect("send");
        std::thread::sleep(Duration::from_secs(1));
        // The write timed out and gave the only slot back.
        let mut c = Client::connect(server.addr());
        let r = c.send("STATS");
        assert!(r.starts_with("OK "), "{r}");
        drop(silent);
        server.shutdown();
    }

    #[test]
    fn shutdown_wakes_the_blocked_acceptor_promptly() {
        for idle_client in [false, true] {
            let server = test_server();
            let client = idle_client.then(|| {
                let mut c = Client::connect(server.addr());
                assert!(c.send("GET IBM").starts_with("OK"));
                c
            });
            let start = std::time::Instant::now();
            server.shutdown();
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "shutdown took {:?} (idle client: {idle_client})",
                start.elapsed()
            );
            drop(client);
        }
    }
}
