//! The adapter: every call into the system under test lives in this
//! file, so an API rename in the repo breaks one module. The wire
//! workloads see a socket address and plain counters; they never touch a
//! `quts_*` type.
//!
//! Four groups: seeded input draws, server/replica lifecycle, the
//! virtual-time and simulator passes, and the single-threaded layer
//! probes.

use crate::probes::{per_call_ns, ProbeResult};
use crate::wire::{Contract, Request, Shape, Verb};
use quts_db::wal::{self, Wal};
use quts_db::{FsyncPolicy, LockMode, LockTable, QueryOp, StockId, Store, Trade, TxnToken};
use quts_engine::{
    run_virtual, DurabilityConfig, Engine, EngineConfig, GroupCommitConfig, LivePolicy, LiveStats,
    Replica, ReplicaConfig, ShipConfig, SubmitError, TraceConfig,
};
use quts_metrics::LogHistogram;
use quts_qc::QualityContract;
use quts_sched::Quts;
use quts_server::{protocol, Server, ServerConfig};
use quts_sim::{QueryId, QueryInfo, Scheduler, SimConfig, SimDuration, SimTime, Simulator};
use quts_workload::popularity::{PopularityMap, ZipfSampler};
use quts_workload::{QcPreset, QcShape, StockWorkloadConfig, Trace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Size of the stock universe (the paper's).
pub const STOCKS: u32 = 4608;

/// The universe's ticker symbols, by stock index.
pub fn symbols() -> Vec<String> {
    Store::with_synthetic_stocks(STOCKS)
        .iter()
        .map(|(_, record)| record.symbol().to_string())
        .collect()
}

/// Default capacity of the engine's admission queue: a window at or past
/// it turns `ERR overloaded` from an event into the steady state.
pub fn queue_capacity() -> usize {
    EngineConfig::default().queue_capacity
}

/// Admission-queue capacity of the server the benchmark starts. `UPD` is
/// acknowledged at admission, so whenever the engine thread (or the
/// generator, which then catches up in one write) loses its core for
/// 50 ms — routine on a shared two-core sandbox — the default queue of
/// 1,024 refuses the burst. A refusal is the sandbox's doing, not the
/// program's, and no workload may fail an operation; with this depth the
/// same stall shows where it belongs, in latency from the due time.
pub const ADMISSION_QUEUE: usize = 1 << 16;

// --- Seeded input draws ---

/// The seeded source every generated input is drawn from: Zipf-popular
/// stocks (queries 0.8, updates 0.9, the paper's exponents) and balanced
/// step contracts.
pub struct Draws {
    rng: StdRng,
    popularity: PopularityMap,
    query_zipf: ZipfSampler,
    update_zipf: ZipfSampler,
}

impl Draws {
    pub fn new(seed: u64) -> Draws {
        let paper = StockWorkloadConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let popularity = PopularityMap::new(&mut rng, STOCKS, paper.anti_correlation);
        Draws {
            rng,
            popularity,
            query_zipf: ZipfSampler::new(STOCKS as usize, paper.query_zipf),
            update_zipf: ZipfSampler::new(STOCKS as usize, paper.update_zipf),
        }
    }

    pub fn query_stock(&mut self) -> usize {
        self.popularity
            .query_stock(self.query_zipf.sample(&mut self.rng))
            .index()
    }

    pub fn update_stock(&mut self) -> usize {
        self.popularity
            .update_stock(self.update_zipf.sample(&mut self.rng))
            .index()
    }

    /// The `top` most-updated stocks, hottest first.
    pub fn hottest_updated(&self, top: usize) -> Vec<usize> {
        (0..top)
            .map(|rank| self.popularity.update_stock(rank).index())
            .collect()
    }

    /// A balanced step contract (Figure 6's distribution), as the wire
    /// carries it.
    pub fn contract(&mut self) -> Contract {
        let qc =
            QcPreset::Balanced.draw(&mut self.rng, QcShape::Step, SimTime::ZERO, SimTime::ZERO);
        wire_contract(&qc)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.random()
    }

    /// Uniform in `lo..hi`.
    pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.random_range(lo..hi)
    }
}

/// Every paper preset asks for `uumax = 1`.
const PRESET_UUMAX: u32 = 1;

fn wire_contract(qc: &QualityContract) -> Contract {
    Contract::step_on_wire(
        qc.qosmax(),
        qc.rtmax_ms().expect("preset contracts have a QoS side"),
        qc.qodmax(),
        PRESET_UUMAX,
    )
}

/// The repo's own profit arithmetic for a client-side contract — the
/// reference the client's recomputation is tested against.
#[cfg(test)]
pub fn reference_profit(contract: &Contract, rt_ms: f64, uu: f64) -> (f64, f64) {
    let qc = match contract.shape {
        Shape::Step => QualityContract::step(
            contract.qosmax,
            contract.rtmax_ms,
            contract.qodmax,
            contract.uumax,
        ),
        Shape::Linear => QualityContract::linear(
            contract.qosmax,
            contract.rtmax_ms,
            contract.qodmax,
            contract.uumax,
        ),
    };
    (qc.qos_profit(rt_ms), qc.qod_profit(uu))
}

/// A slice of the calibrated paper workload: `horizon_s` seconds at the
/// paper's rates (45.6 q/s, 276 u/s, bursts and trade clusters included),
/// or the whole 30-minute trace.
pub struct PaperTrace {
    trace: Trace,
    /// The shape drawn for each query's contract.
    shapes: Vec<Shape>,
}

/// One wire request with its arrival time in the trace, µs.
pub struct Timed {
    pub at_us: u64,
    pub request: Request,
}

impl PaperTrace {
    /// `horizon_s` seconds of the calibrated workload (`None`: all 30
    /// minutes), segment number `segment` of it.
    ///
    /// The arrival process, the popularity ranking and the trade
    /// clusters are the calibrated trace's own, generated from the
    /// repo's default trace seed (plus `segment`), the same for every
    /// benchmark seed: latency and profit on this system follow the
    /// arrival pattern so closely (see the README) that letting it vary
    /// would drown every other difference. `seed` decides which stock
    /// plays which role (a relabeling of the universe), and every
    /// contract; `linear_share` of the contracts are linear, the rest
    /// step.
    pub fn generate(
        seed: u64,
        segment: u64,
        horizon_s: Option<f64>,
        linear_share: f64,
    ) -> PaperTrace {
        let paper = StockWorkloadConfig::default();
        let share = horizon_s.map_or(1.0, |h| h / paper.horizon_s);
        let config = StockWorkloadConfig {
            seed: paper.seed.wrapping_add(segment),
            num_queries: ((paper.num_queries as f64 * share).round() as usize).max(1),
            num_updates: ((paper.num_updates as f64 * share).round() as usize).max(1),
            horizon_s: paper.horizon_s * share,
            ..paper
        };
        let mut trace = config.generate();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut label: Vec<u32> = (0..trace.num_stocks).collect();
        for i in (1..label.len()).rev() {
            label.swap(i, rng.random_range(0..=i));
        }
        let relabel = |s: &mut StockId| *s = StockId(label[s.index()]);
        for u in &mut trace.updates {
            relabel(&mut u.trade.stock);
        }
        for q in &mut trace.queries {
            match &mut q.op {
                QueryOp::Lookup(s) | QueryOp::MovingAverage { stock: s, .. } => relabel(s),
                QueryOp::Compare(stocks) => stocks.iter_mut().for_each(relabel),
                QueryOp::Portfolio(positions) => positions.iter_mut().for_each(|(s, _)| relabel(s)),
            }
        }

        let horizon = trace.horizon();
        let mut shapes = Vec::with_capacity(trace.queries.len());
        for q in &mut trace.queries {
            let (shape, qc_shape) = if rng.random::<f64>() < linear_share {
                (Shape::Linear, QcShape::Linear)
            } else {
                (Shape::Step, QcShape::Step)
            };
            q.qc = QcPreset::Balanced.draw(&mut rng, qc_shape, q.arrival, horizon);
            shapes.push(shape);
        }
        PaperTrace { trace, shapes }
    }

    /// Each query's contract as a client would state it (unrounded: these
    /// never cross the wire).
    pub fn contracts(&self) -> Vec<Contract> {
        self.trace
            .queries
            .iter()
            .zip(&self.shapes)
            .map(|(q, &shape)| Contract {
                shape,
                qosmax: q.qc.qosmax(),
                rtmax_ms: q.qc.rtmax_ms().expect("preset contracts have a QoS side"),
                qodmax: q.qc.qodmax(),
                uumax: PRESET_UUMAX,
            })
            .collect()
    }

    pub fn events(&self) -> u64 {
        (self.trace.queries.len() + self.trace.updates.len()) as u64
    }

    /// The trace's queries as wire requests. Portfolios go out as `CMP`
    /// over the same stocks (the protocol has no portfolio verb).
    pub fn wire_queries(&self, symbols: &[String]) -> Vec<Timed> {
        let sym = |s: &StockId| symbols[s.index()].as_str();
        self.trace
            .queries
            .iter()
            .map(|q| {
                let contract = wire_contract(&q.qc);
                let (verb, head) = match &q.op {
                    QueryOp::Lookup(s) => (Verb::Get, format!("GET {}", sym(s))),
                    QueryOp::MovingAverage { stock, window } => {
                        (Verb::Avg, format!("AVG {} {window}", sym(stock)))
                    }
                    QueryOp::Compare(stocks) => {
                        let list: Vec<&str> = stocks.iter().map(sym).collect();
                        (Verb::Cmp, format!("CMP {}", list.join(" ")))
                    }
                    QueryOp::Portfolio(positions) => {
                        let list: Vec<&str> = positions.iter().map(|(s, _)| sym(s)).collect();
                        (Verb::Cmp, format!("CMP {}", list.join(" ")))
                    }
                };
                Timed {
                    at_us: q.arrival.as_micros(),
                    request: Request {
                        verb,
                        line: format!("{head}{}\n", contract.clause()),
                        contract: Some(contract),
                    },
                }
            })
            .collect()
    }

    /// The trace's trades as `UPD` requests.
    pub fn wire_updates(&self, symbols: &[String]) -> Vec<Timed> {
        self.trace
            .updates
            .iter()
            .map(|u| Timed {
                at_us: u.arrival.as_micros(),
                request: Request {
                    verb: Verb::Upd,
                    line: format!(
                        "UPD {} {:.2} {}\n",
                        symbols[u.trade.stock.index()],
                        u.trade.price,
                        u.trade.volume
                    ),
                    contract: None,
                },
            })
            .collect()
    }
}

// --- Server and replica lifecycle ---

/// Which durability stack the server runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMode {
    /// Pure in-memory engine, as in the paper.
    None,
    /// `DurabilityConfig::new(dir)` untouched: fsync every 64 appends, a
    /// snapshot every 4096.
    Defaults,
    /// Fsync on every commit group (default group commit), WAL shipped
    /// to one in-process replica.
    ShippedAlways,
}

impl WalMode {
    /// The flush policy in words, for the result header.
    pub fn flush_policy(self) -> String {
        match self {
            WalMode::None => "no WAL".into(),
            WalMode::Defaults => {
                let d = DurabilityConfig::new("");
                format!(
                    "fsync {:?}, snapshot every {} appends",
                    d.fsync, d.snapshot_every
                )
            }
            WalMode::ShippedAlways => {
                let g = GroupCommitConfig::default();
                format!(
                    "fsync Always, group commit max_batch={} max_delay_us={}, snapshot every {} appends, shipped to 1 replica",
                    g.max_batch,
                    g.max_delay_us,
                    DurabilityConfig::new("").snapshot_every
                )
            }
        }
    }
}

/// A percentile pair from one of the engine's own histograms, under the
/// same sample-count rule as client-side timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistSummary {
    pub n: u64,
    pub p50: Option<f64>,
    pub p99: Option<f64>,
}

fn summarize(h: &LogHistogram) -> HistSummary {
    let n = h.count();
    let at = |p: f64| {
        crate::stats::supports(n as usize, p).then(|| h.quantile(p).expect("non-empty") as f64)
    };
    HistSummary {
        n,
        p50: at(0.5),
        p99: at(0.99),
    }
}

/// The engine's accounting as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    pub queries_submitted: u64,
    pub queries_committed: u64,
    pub updates_applied: u64,
    pub updates_invalidated: u64,
    pub updates_dropped_overload: u64,
    pub queue_full_rejections: u64,
    pub profit_pct_reported: f64,
    pub rho: f64,
    pub uu_mean: f64,
    pub wal_appended: u64,
    pub wal_last_lsn: u64,
    pub wal_fsyncs: u64,
    pub snapshots: u64,
    pub group_wait_us: HistSummary,
    pub group_batch: HistSummary,
    /// Lifecycle spans; all-empty unless the run was traced.
    pub queue_wait_us: HistSummary,
    pub service_us: HistSummary,
    pub response_us: HistSummary,
    pub update_delay_us: HistSummary,
}

fn counters(s: &LiveStats) -> EngineCounters {
    EngineCounters {
        queries_submitted: s.aggregates.submitted,
        queries_committed: s.aggregates.committed,
        updates_applied: s.updates_applied,
        updates_invalidated: s.updates_invalidated,
        updates_dropped_overload: s.updates_dropped_overload,
        queue_full_rejections: s.queue_full_rejections,
        profit_pct_reported: s.total_pct() * 100.0,
        rho: s.rho,
        uu_mean: s.staleness.mean(),
        wal_appended: s.wal_appended,
        wal_last_lsn: s.wal_last_lsn,
        wal_fsyncs: s.wal_fsyncs,
        snapshots: s.snapshots_written,
        group_wait_us: summarize(&s.group_commit_wait_us),
        group_batch: summarize(&s.group_commit_batch),
        queue_wait_us: summarize(&s.spans.queue_wait_us),
        service_us: summarize(&s.spans.service_us),
        response_us: summarize(&s.spans.response_us),
        update_delay_us: summarize(&s.spans.update_delay_us),
    }
}

/// The replica's progress as plain numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaCounters {
    pub applied_lsn: u64,
    pub bootstraps: u64,
    pub reconnects: u64,
}

/// A running server (and its replica, when shipping).
pub struct Sut {
    server: Server,
    replica: Option<Replica>,
    dir: Option<PathBuf>,
}

impl Sut {
    /// Starts the real server on an ephemeral loopback port over a fresh
    /// universe. Durable modes keep their files under `scratch`, which is
    /// wiped first; a shipping server also boots its replica and waits
    /// for the bootstrap to finish.
    pub fn start(wal: WalMode, traced: bool, scratch: &Path) -> io::Result<Sut> {
        let trace = if traced {
            TraceConfig::spans()
        } else {
            TraceConfig::off()
        };
        let mut engine = EngineConfig::default()
            .with_trace(trace)
            .with_queue_capacity(ADMISSION_QUEUE);
        let mut dir = None;
        if wal != WalMode::None {
            let _ = std::fs::remove_dir_all(scratch);
            let primary = scratch.join("primary");
            std::fs::create_dir_all(&primary)?;
            let mut durability = DurabilityConfig::new(&primary);
            if wal == WalMode::ShippedAlways {
                durability = durability
                    .with_fsync(FsyncPolicy::Always)
                    .with_group_commit(GroupCommitConfig::default());
            }
            engine = engine.with_durability(durability);
            dir = Some(scratch.to_path_buf());
        }
        let config = ServerConfig {
            engine,
            repl_ship: (wal == WalMode::ShippedAlways).then(ShipConfig::default),
            ..ServerConfig::default()
        };
        let server = Server::start(Store::with_synthetic_stocks(STOCKS), config)?;
        let replica = match server.repl_addr() {
            None => None,
            Some(addr) => {
                let replica =
                    Replica::start(addr, ReplicaConfig::new("bench", scratch.join("replica")))?;
                let deadline = Instant::now() + Duration::from_secs(30);
                while !replica.stats().ready {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "replica never bootstrapped",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Some(replica)
            }
        };
        Ok(Sut {
            server,
            replica,
            dir,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn engine(&self) -> EngineCounters {
        counters(&self.server.stats())
    }

    /// Highest LSN the replica has applied (0 without a replica).
    pub fn replica_applied_lsn(&self) -> u64 {
        self.replica.as_ref().map_or(0, |r| r.stats().applied_lsn)
    }

    pub fn replica(&self) -> Option<ReplicaCounters> {
        self.replica.as_ref().map(|r| {
            let s = r.stats();
            ReplicaCounters {
                applied_lsn: s.applied_lsn,
                bootstraps: s.bootstraps,
                reconnects: s.reconnects(),
            }
        })
    }

    /// Stops replica and server, drains the engine, removes the WAL
    /// directories, and returns the engine's final accounting.
    pub fn shutdown(self) -> EngineCounters {
        if let Some(replica) = self.replica {
            replica.shutdown();
        }
        let stats = self.server.shutdown();
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        counters(&stats)
    }
}

// --- Virtual-time and simulator passes ---

/// One pass of the trace through the live engine's scheduler on its
/// virtual clock.
pub struct VirtPass {
    pub wall: Duration,
    pub engine: EngineCounters,
    pub profit_pct: f64,
    pub end_us: u64,
    /// Per query, in trace order: `(response time ms, staleness)` of a
    /// committed answer, `None` for a query that expired.
    pub answers: Vec<Option<(f64, f64)>>,
}

pub fn virtual_pass(trace: &PaperTrace, traced: bool) -> VirtPass {
    let config = EngineConfig::default()
        .with_paper_costs()
        .with_policy(LivePolicy::Quts)
        .with_trace(if traced {
            TraceConfig::spans()
        } else {
            TraceConfig::off()
        });
    let t = &trace.trace;
    let started = Instant::now();
    let report = run_virtual(t.num_stocks, &t.queries, &t.updates, &config);
    let wall = started.elapsed();
    VirtPass {
        wall,
        profit_pct: report.stats.total_pct() * 100.0,
        engine: counters(&report.stats),
        end_us: report.end_us,
        answers: report
            .outcomes
            .iter()
            .map(|o| o.reply.as_ref().ok().map(|r| (r.rt_ms, r.staleness)))
            .collect(),
    }
}

/// One pass of the trace through the discrete-event simulator + QUTS.
pub struct SimPass {
    pub wall: Duration,
    pub profit_pct: f64,
    pub dispatches: u64,
    pub committed: u64,
    pub updates_applied: u64,
    pub updates_invalidated: u64,
}

pub fn simulator_pass(trace: &PaperTrace) -> SimPass {
    let t = &trace.trace;
    let (queries, updates) = (t.queries.clone(), t.updates.clone());
    let started = Instant::now();
    let report = Simulator::new(
        SimConfig::with_stocks(t.num_stocks),
        queries,
        updates,
        Quts::with_defaults(),
    )
    .run();
    SimPass {
        wall: started.elapsed(),
        profit_pct: report.total_pct() * 100.0,
        dispatches: report.dispatches,
        committed: report.committed,
        updates_applied: report.updates_applied,
        updates_invalidated: report.updates_invalidated,
    }
}

/// Events per second the workload generator itself produces.
pub fn trace_generation_rate(seed: u64) -> f64 {
    let started = Instant::now();
    let trace = PaperTrace::generate(seed, 0, Some(120.0), 0.5);
    trace.events() as f64 / started.elapsed().as_secs_f64()
}

// --- Layer probes ---

/// Calls per probe: the first 20k generated request lines.
pub const PROBE_CALLS: usize = 20_000;

fn trade_for(i: usize) -> Trade {
    Trade {
        stock: StockId((i * 31 % STOCKS as usize) as u32),
        price: 100.0 + (i % 97) as f64 * 0.25,
        volume: 100 + (i % 900) as u64,
        trade_time_ms: i as u64,
    }
}

/// Pushes the workload's request lines through each layer's public
/// function, single-threaded (bar the channel ping-pong, which is two
/// threads by definition), and reports per-call costs.
pub fn layer_probes(requests: &[Request], scratch: &Path) -> io::Result<Vec<ProbeResult>> {
    let mut out = Vec::new();
    let n = PROBE_CALLS;
    let contracts: Vec<QualityContract> = requests
        .iter()
        .filter_map(|r| r.contract)
        .map(|c| QualityContract::step(c.qosmax, c.rtmax_ms, c.qodmax, c.uumax))
        .collect();

    // server.protocol: parse one request line.
    if !requests.is_empty() {
        out.push(ProbeResult::ns(
            "protocol.parse_ns",
            n,
            per_call_ns(n, |i| {
                black_box(protocol::parse(black_box(&requests[i % requests.len()].line)).is_ok());
            }),
        ));
    }

    // qc: one profit evaluation.
    if !contracts.is_empty() {
        out.push(ProbeResult::ns(
            "qc.profit_eval_ns",
            n,
            per_call_ns(n, |i| {
                let qc = &contracts[i % contracts.len()];
                black_box(qc.total_profit(black_box((i % 120) as f64), black_box((i % 3) as f64)));
            }),
        ));
    }

    // db.store: lookup, moving average, apply.
    let mut store = Store::with_synthetic_stocks(STOCKS);
    for i in 0..n {
        store.apply_update(&trade_for(i));
    }
    out.push(ProbeResult::ns(
        "db.lookup_ns",
        n,
        per_call_ns(n, |i| {
            black_box(QueryOp::Lookup(trade_for(i).stock).execute(&store));
        }),
    ));
    out.push(ProbeResult::ns(
        "db.moving_avg_ns",
        n,
        per_call_ns(n, |i| {
            let op = QueryOp::MovingAverage {
                stock: trade_for(i).stock,
                window: 16,
            };
            black_box(op.execute(&store));
        }),
    ));
    out.push(ProbeResult::ns(
        "db.apply_update_ns",
        n,
        per_call_ns(n, |i| {
            store.apply_update(black_box(&trade_for(i)));
        }),
    ));

    // db.lock: one read-lock acquire + release.
    let mut locks = LockTable::new();
    out.push(ProbeResult::ns(
        "db.lock_cycle_ns",
        n,
        per_call_ns(n, |i| {
            let txn = TxnToken((i % 64) as u64);
            black_box(locks.acquire(txn, 1.0, trade_for(i).stock, LockMode::Read));
            locks.release_all(txn);
        }),
    ));

    // metrics: one histogram record.
    let mut hist = LogHistogram::new();
    out.push(ProbeResult::ns(
        "metrics.hist_record_ns",
        n,
        per_call_ns(n, |i| {
            hist.record(black_box(i as u64 * 37));
        }),
    ));
    black_box(hist.count());

    // sched: one QUTS admit + pop at a standing depth of 1,000 queries.
    let mut quts = Quts::with_defaults();
    let info = |seq: u64| QueryInfo {
        arrival: SimTime::from_ms(seq),
        seq,
        cost: SimDuration::from_ms(7),
        qosmax: 10.0 + (seq % 40) as f64,
        qodmax: 10.0 + (seq % 37) as f64,
        rtmax_ms: Some(50.0 + (seq % 50) as f64),
        vrd: (20.0 + (seq % 77) as f64) / (50.0 + (seq % 50) as f64),
        expiry: SimTime::from_secs(3_600),
    };
    for seq in 0..1_000u64 {
        quts.admit_query(QueryId(seq as u32), &info(seq), SimTime::from_ms(seq));
    }
    out.push(ProbeResult::ns(
        "sched.decision_ns",
        n,
        per_call_ns(n, |i| {
            let seq = 1_000 + i as u64;
            let now = SimTime::from_ms(seq);
            quts.admit_query(QueryId(seq as u32), &info(seq), now);
            if let Some(txn) = quts.pop_next(now) {
                quts.finish(txn);
            }
        }),
    ));

    // vendor.channel: one hop of a two-thread ping-pong over bounded(1).
    {
        let (to_echo, echo_rx) = crossbeam::channel::bounded::<u64>(1);
        let (to_main, main_rx) = crossbeam::channel::bounded::<u64>(1);
        let echo = std::thread::spawn(move || {
            while let Ok(v) = echo_rx.recv() {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let round_trip = per_call_ns(n, |i| {
            to_echo.send(i as u64).expect("echo thread alive");
            black_box(main_rx.recv().expect("echo thread alive"));
        });
        drop(to_echo);
        echo.join().expect("echo thread");
        out.push(ProbeResult::ns("channel.hop_ns", n, round_trip / 2.0));
    }

    // engine.repl: WAL frame encode + decode (the replication stream
    // ships WAL frames verbatim).
    out.push(ProbeResult::ns(
        "repl.frame_codec_ns",
        n,
        per_call_ns(n, |i| {
            let frame = wal::encode_frame(i as u64 + 1, &wal::encode_trade(&trade_for(i)));
            let (decoded, _) = wal::decode_frame(&frame, 0)
                .ok()
                .flatten()
                .expect("own frame decodes");
            black_box(wal::decode_trade(&decoded.payload));
        }),
    ));

    // db.wal: append without fsync, then the sandbox's fsync.
    let wal_dir = scratch.join("probe-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    {
        let mut log = Wal::create(&wal_dir, FsyncPolicy::Off, 8 << 20, 1)?;
        let mut failed = None;
        let ns = per_call_ns(n, |i| {
            if let Err(e) = log.append(&wal::encode_trade(&trade_for(i))) {
                failed.get_or_insert(e);
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        out.push(ProbeResult::ns("wal.append_ns", n, ns));
        drop(log); // flushes the buffered tail
        let mut bytes = 0;
        for entry in std::fs::read_dir(&wal_dir)? {
            bytes += entry?.metadata()?.len();
        }
        out.push(ProbeResult {
            name: "wal.bytes_per_update",
            unit: "count",
            n,
            value: bytes as f64 / n as f64,
        });
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    {
        let mut log = Wal::create(&wal_dir, FsyncPolicy::Always, 8 << 20, 1)?;
        let mut samples = crate::stats::Samples::default();
        for i in 0..200 {
            let started = Instant::now();
            log.append(&wal::encode_trade(&trade_for(i)))?;
            samples.push(started.elapsed().as_nanos() as u64);
        }
        out.push(ProbeResult {
            name: "wal.fsync_p50_us",
            unit: "us",
            n: samples.len(),
            value: samples.percentile_us(0.5).expect("200 samples"),
        });
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    // engine.runtime in-process: the floor under a wire query and the
    // ceiling over wire updates.
    {
        let engine = Engine::start(
            Store::with_synthetic_stocks(STOCKS),
            EngineConfig::default().with_trace(TraceConfig::off()),
        );
        let handle = engine.handle();
        let qc = QualityContract::step(20.0, 50.0, 20.0, 1);
        let mut samples = crate::stats::Samples::default();
        for i in 0..n {
            let op = QueryOp::Lookup(trade_for(i).stock);
            let started = Instant::now();
            let reply = handle
                .submit_query(op, qc.clone())
                .map(|ticket| ticket.recv());
            samples.push(started.elapsed().as_nanos() as u64);
            if !matches!(reply, Ok(Ok(_))) {
                return Err(io::Error::other("in-process query probe was refused"));
            }
        }
        out.push(ProbeResult {
            name: "engine.inproc_query_rt_p50_ns",
            unit: "ns",
            n,
            value: samples.percentile_us(0.5).expect("20k samples") * 1_000.0,
        });

        let flood = 10 * n as u64;
        let started = Instant::now();
        for i in 0..flood as usize {
            loop {
                match handle.submit_update(trade_for(i)) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull) => std::thread::yield_now(),
                    Err(SubmitError::EngineDown) => {
                        return Err(io::Error::other("in-process update probe: engine down"))
                    }
                }
            }
        }
        loop {
            let s = handle.stats();
            if s.updates_applied + s.updates_invalidated + s.updates_dropped_overload >= flood {
                break;
            }
            std::thread::yield_now();
        }
        let wall = started.elapsed();
        engine.shutdown();
        out.push(ProbeResult {
            name: "engine.inproc_update_per_s",
            unit: "1/s",
            n: flood as usize,
            value: flood as f64 / wall.as_secs_f64(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_profit_matches_the_repos_contracts() {
        for shape in [Shape::Step, Shape::Linear] {
            let mut c = Contract::step_on_wire(23.45, 67.8, 41.2, 2);
            c.shape = shape;
            for rt_ms in [0.0, 0.04, 33.9, 67.79, 67.8, 67.81, 500.0] {
                for uu in [0.0, 0.5, 1.0, 1.99, 2.0, 7.0] {
                    let (qos, qod) = reference_profit(&c, rt_ms, uu);
                    assert_eq!(c.qos_profit(rt_ms), qos, "{shape:?} qos at {rt_ms}");
                    assert_eq!(c.qod_profit(uu), qod, "{shape:?} qod at {uu}");
                }
            }
        }
    }

    #[test]
    fn draws_repeat_per_seed_and_contracts_parse_on_the_server_side() {
        let (mut a, mut b, mut c) = (Draws::new(7), Draws::new(7), Draws::new(8));
        let mut differs = false;
        for _ in 0..200 {
            let (x, y, z) = (a.query_stock(), b.query_stock(), c.query_stock());
            assert_eq!(x, y);
            differs |= x != z;
            let contract = a.contract();
            assert_eq!(contract, b.contract());
            let line = format!("GET S0001{}", contract.clause());
            let Ok(protocol::Request::Get { qc, .. }) = protocol::parse(&line) else {
                panic!("server refuses {line:?}");
            };
            assert_eq!(qc.qosmax(), contract.qosmax);
            assert_eq!(qc.rtmax_ms(), Some(contract.rtmax_ms));
            assert_eq!(qc.qodmax(), contract.qodmax);
        }
        assert!(differs, "another seed gives other inputs");
    }

    #[test]
    fn paper_trace_slices_keep_the_papers_rates() {
        let symbols = symbols();
        let trace = PaperTrace::generate(3, 0, Some(60.0), 0.0);
        let (queries, updates) = (trace.wire_queries(&symbols), trace.wire_updates(&symbols));
        // 45.6 q/s and 276 u/s over a minute.
        assert_eq!(queries.len(), 2738);
        assert_eq!(updates.len(), 16563);
        assert!(queries.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        for t in queries.iter().chain(&updates) {
            assert!(
                protocol::parse(t.request.line.trim_end()).is_ok(),
                "{:?}",
                t.request.line
            );
        }
    }
}
