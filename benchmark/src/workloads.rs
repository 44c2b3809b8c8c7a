//! The five workloads. Each has a `prepare` (everything `setup_s`
//! counts: inputs from the seed, server start, replica bootstrap) and a
//! `measure` that drives it from exactly two generator threads over two
//! connections — one *user* session, one *feed* session — and returns
//! named values. Why each exists is in `BENCHMARK.json` and the README.

use crate::load::{
    closed_loop, flood, since, Due, Leftovers, OpenLoop, Pool, Stop, Tally, POLL_GRAIN,
};
use crate::stats::{highest_supported, Samples};
use crate::sut::{self, Draws, EngineCounters, PaperTrace, Sut, Timed, WalMode};
use crate::wire::{classify, Reply, Request, Session, Span, Verb};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireClosed,
    WireOpenPaper,
    WireFloodDurable,
    ReplShip,
    VirtPaperTrace,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WireClosed,
        Workload::WireOpenPaper,
        Workload::WireFloodDurable,
        Workload::ReplShip,
        Workload::VirtPaperTrace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireClosed => "wire_closed",
            Workload::WireOpenPaper => "wire_open_paper",
            Workload::WireFloodDurable => "wire_flood_durable",
            Workload::ReplShip => "repl_ship",
            Workload::VirtPaperTrace => "virt_paper_trace",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The durability policy the workload's server runs under, in words.
    pub fn flush_policy(self) -> String {
        self.wal().flush_policy()
    }

    fn wal(self) -> WalMode {
        match self {
            Workload::WireFloodDurable => WalMode::Defaults,
            Workload::ReplShip => WalMode::ShippedAlways,
            _ => WalMode::None,
        }
    }
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub n: u64,
}

pub type Values = BTreeMap<&'static str, Measured>;

fn put(values: &mut Values, name: &'static str, value: f64, n: u64) {
    debug_assert!(
        crate::metrics::lookup(name).is_some(),
        "{name} is not in the registry"
    );
    values.insert(name, Measured { value, n });
}

fn put_opt(values: &mut Values, name: &'static str, value: Option<f64>, n: u64) {
    if let Some(v) = value {
        put(values, name, v, n);
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations, offending lines quoted. Empty means
    /// the outputs were correct.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
    /// Seconds actually measured (warm-up and drains excluded).
    pub measured_s: f64,
}

pub struct Knobs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where WAL directories live while a run lasts.
    pub scratch: PathBuf,
}

/// Warm-up before measuring on the wire workloads: connections, the
/// allocator and the WAL's first segment, excluded from every number.
const WARMUP: Duration = Duration::from_secs(1);

/// Requests pre-generated per closed-loop session (the loop wraps).
const POOL: usize = 20_000;

/// Set-ups timed per run, before and after the measurement; `setup_s`
/// is the fastest of them all.
///
/// The fastest, not the median: a set-up is 25..100 ms of CPU-bound
/// work, and this sandbox slows down by a third (and by more, for cold
/// memory) for seconds at a time. Over ten runs of 27 set-ups each, the
/// median of a run spread 24 %, 6 % and 50 % on `wire_open_paper`,
/// `virt_paper_trace` and `repl_ship`; the fastest spread 2.8 %, 1.6 %
/// and 4.9 %. Noise only ever adds time. Two sittings ten seconds apart,
/// because one sitting can fall wholly inside a slow spell.
const SETUPS_BEFORE: usize = 11;
const SETUPS_AFTER: usize = 10;

/// The smallest of `seconds`: for deterministic CPU-bound work, noise
/// only ever adds time.
fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn timed_setup(workload: Workload, knobs: &Knobs, samples: &mut Vec<f64>) -> io::Result<Prepared> {
    let started = Instant::now();
    let prepared = prepare(workload, knobs)?;
    samples.push(started.elapsed().as_secs_f64());
    Ok(prepared)
}

/// Runs `workload` once: set-ups, the measurement on the last of them,
/// more set-ups.
pub fn run(workload: Workload, knobs: &Knobs) -> io::Result<Outcome> {
    let mut setup_samples = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut prepared = timed_setup(workload, knobs, &mut setup_samples)?;
    for _ in 1..SETUPS_BEFORE {
        prepared.shutdown();
        prepared = timed_setup(workload, knobs, &mut setup_samples)?;
    }
    let mut outcome = match workload {
        Workload::WireClosed => wire_closed(prepared, knobs)?,
        Workload::WireOpenPaper => wire_open_paper(prepared, knobs)?,
        Workload::WireFloodDurable => wire_flood_durable(prepared, knobs)?,
        Workload::ReplShip => repl_ship(prepared, knobs)?,
        Workload::VirtPaperTrace => virt_paper_trace(prepared, knobs),
    };
    for _ in 0..SETUPS_AFTER {
        timed_setup(workload, knobs, &mut setup_samples)?.shutdown();
    }
    put(
        &mut outcome.values,
        "setup_s",
        fastest(&setup_samples),
        setup_samples.len() as u64,
    );
    Ok(outcome)
}

/// Everything a workload needs before its clock starts.
struct Prepared {
    sut: Option<Sut>,
    user: Vec<Request>,
    feed: Vec<Request>,
    /// Open-loop stages, warm-up first.
    stages: Vec<Stage>,
    trace: Option<PaperTrace>,
}

impl Prepared {
    /// Stops the server of a set-up that will not be measured on.
    fn shutdown(self) {
        if let Some(sut) = self.sut {
            sut.shutdown();
        }
    }
}

/// One stage's schedules: due times in ns after the stage's start.
struct Stage {
    multiplier: u32,
    duration: Duration,
    user: Vec<(u64, Request)>,
    feed: Vec<(u64, Request)>,
}

fn query_request(draws: &mut Draws, symbols: &[String], stock: usize, verb: Verb) -> Request {
    let contract = draws.contract();
    let head = match verb {
        Verb::Get => format!("GET {}", symbols[stock]),
        Verb::Avg => format!("AVG {} {}", symbols[stock], draws.below(4, 32)),
        Verb::Cmp => {
            let mut stocks = vec![stock];
            let want = draws.below(2, 6) as usize;
            while stocks.len() < want {
                let s = draws.query_stock();
                if !stocks.contains(&s) {
                    stocks.push(s);
                }
            }
            let list: Vec<&str> = stocks.iter().map(|&s| symbols[s].as_str()).collect();
            format!("CMP {}", list.join(" "))
        }
        Verb::Upd => unreachable!("not a query"),
    };
    Request {
        verb,
        line: format!("{head}{}\n", contract.clause()),
        contract: Some(contract),
    }
}

fn update_request(draws: &mut Draws, symbols: &[String], stock: usize) -> Request {
    let price = 100.0 * (0.9 + 0.2 * draws.unit());
    Request {
        verb: Verb::Upd,
        line: format!(
            "UPD {} {price:.2} {}\n",
            symbols[stock],
            draws.below(100, 10_000)
        ),
        contract: None,
    }
}

fn compress(timed: Vec<Timed>, multiplier: u32) -> Vec<(u64, Request)> {
    timed
        .into_iter()
        .map(|t| (t.at_us * 1_000 / u64::from(multiplier), t.request))
        .collect()
}

/// The open loop's rate multipliers over the paper's 45.6 q/s + 276 u/s.
const MULTIPLIERS: [u32; 3] = [10, 40, 80];

fn prepare(workload: Workload, knobs: &Knobs) -> io::Result<Prepared> {
    let mut p = inputs(workload, knobs);
    if workload != Workload::VirtPaperTrace {
        p.sut = Some(Sut::start(workload.wal(), knobs.traced, &knobs.scratch)?);
    }
    Ok(p)
}

/// Everything generated from the seed; no IO.
fn inputs(workload: Workload, knobs: &Knobs) -> Prepared {
    let symbols = sut::symbols();
    let mut draws = Draws::new(knobs.seed);
    let mut p = Prepared {
        sut: None,
        user: Vec::new(),
        feed: Vec::new(),
        stages: Vec::new(),
        trace: None,
    };
    match workload {
        Workload::WireClosed => {
            // GET/AVG/CMP 70/20/10 over Zipf-popular stocks.
            for _ in 0..POOL {
                let verb = match draws.unit() {
                    x if x < 0.7 => Verb::Get,
                    x if x < 0.9 => Verb::Avg,
                    _ => Verb::Cmp,
                };
                let stock = draws.query_stock();
                p.user
                    .push(query_request(&mut draws, &symbols, stock, verb));
                let stock = draws.update_stock();
                p.feed.push(update_request(&mut draws, &symbols, stock));
            }
        }
        Workload::WireOpenPaper => {
            let stage_s = knobs.seconds / MULTIPLIERS.len() as f64;
            // Stage 0 is the warm-up, at the lowest rate.
            let plan = std::iter::once((MULTIPLIERS[0], WARMUP.as_secs_f64()))
                .chain(MULTIPLIERS.into_iter().map(|m| (m, stage_s)));
            for (k, (multiplier, seconds)) in plan.enumerate() {
                let trace = PaperTrace::generate(
                    knobs.seed,
                    k as u64,
                    Some(seconds * f64::from(multiplier)),
                    0.0,
                );
                p.stages.push(Stage {
                    multiplier,
                    duration: Duration::from_secs_f64(seconds),
                    user: compress(trace.wire_queries(&symbols), multiplier),
                    feed: compress(trace.wire_updates(&symbols), multiplier),
                });
            }
        }
        Workload::WireFloodDurable => {
            // The user reads the 64 most-updated stocks, where staleness
            // is; the feed floods Zipf-popular updates.
            let hot = draws.hottest_updated(64);
            for i in 0..POOL {
                p.user.push(query_request(
                    &mut draws,
                    &symbols,
                    hot[i % hot.len()],
                    Verb::Get,
                ));
            }
            for _ in 0..4 * POOL {
                let stock = draws.update_stock();
                p.feed.push(update_request(&mut draws, &symbols, stock));
            }
        }
        Workload::ReplShip => {
            for _ in 0..POOL {
                let stock = draws.query_stock();
                p.user
                    .push(query_request(&mut draws, &symbols, stock, Verb::Get));
            }
            for _ in 0..4 * POOL {
                let stock = draws.update_stock();
                p.feed.push(update_request(&mut draws, &symbols, stock));
            }
        }
        Workload::VirtPaperTrace => {
            p.trace = Some(PaperTrace::generate(knobs.seed, 0, None, 0.5));
        }
    }
    p
}

// --- Shared accounting ---

/// Client-observed latency of one stretch of traffic: the median and,
/// where the sample count supports it, p99.
fn latency_values(values: &mut Values, user: &mut Tally, feed: &mut Tally) {
    for (what, lat) in [
        ("query", &mut user.query_lat),
        ("update ack", &mut feed.update_lat),
    ] {
        // The rule in full, for the reader: the median and the highest
        // percentile that still has ten samples beyond it.
        if let Some(top) = highest_supported(lat.len()) {
            println!(
                "  {what} latency: n={}, p50 {:.1} us, p{} {:.1} us",
                lat.len(),
                lat.percentile_us(0.5).expect("supported"),
                top * 100.0,
                lat.percentile_us(top).expect("supported"),
            );
        }
    }
    let n = user.query_lat.len() as u64;
    put_opt(values, "query_p50_us", user.query_lat.percentile_us(0.5), n);
    put_opt(
        values,
        "query_p99_us",
        user.query_lat.percentile_us(0.99),
        n,
    );
    let n = feed.update_lat.len() as u64;
    put_opt(
        values,
        "update_ack_p50_us",
        feed.update_lat.percentile_us(0.5),
        n,
    );
    put_opt(
        values,
        "update_ack_p99_us",
        feed.update_lat.percentile_us(0.99),
        n,
    );
}

/// Client-side throughput, contract and failure accounting over
/// `measured_s` seconds of traffic.
fn rate_values(values: &mut Values, user: &Tally, feed: &Tally, measured_s: f64) {
    let attempted = user.attempted + feed.attempted;
    put(
        values,
        "ops_per_s",
        (user.ok() + feed.ok()) as f64 / measured_s,
        user.ok() + feed.ok(),
    );
    if user.queries_attempted > 0 {
        put(
            values,
            "query_slo_frac",
            user.within_rtmax as f64 / user.queries_attempted as f64,
            user.queries_attempted,
        );
        put(
            values,
            "profit_pct",
            100.0 * user.profit_gained / user.profit_offered,
            user.queries_attempted,
        );
    }
    put(
        values,
        "failed_frac",
        (user.failed() + feed.failed()) as f64 / attempted.max(1) as f64,
        attempted,
    );
    put(
        values,
        "gen.unanswered",
        (user.unanswered + feed.unanswered) as f64,
        attempted,
    );
}

/// Engine-side values read from the server's own statistics. The span
/// histograms are empty unless the run was traced.
fn engine_values(values: &mut Values, e: &EngineCounters) {
    let spans = [
        (
            "engine.queue_wait_p50_us",
            e.queue_wait_us.p50,
            e.queue_wait_us.n,
        ),
        (
            "engine.queue_wait_p99_us",
            e.queue_wait_us.p99,
            e.queue_wait_us.n,
        ),
        ("engine.service_p50_us", e.service_us.p50, e.service_us.n),
        ("engine.response_p50_us", e.response_us.p50, e.response_us.n),
        ("engine.response_p99_us", e.response_us.p99, e.response_us.n),
        (
            "engine.update_delay_p50_us",
            e.update_delay_us.p50,
            e.update_delay_us.n,
        ),
        (
            "engine.update_delay_p99_us",
            e.update_delay_us.p99,
            e.update_delay_us.n,
        ),
        (
            "durability.group_wait_p50_us",
            e.group_wait_us.p50,
            e.group_wait_us.n,
        ),
        (
            "durability.group_batch_p50",
            e.group_batch.p50,
            e.group_batch.n,
        ),
    ];
    for (name, value, n) in spans {
        put_opt(values, name, value, n);
    }
    put(values, "engine.uu_mean", e.uu_mean, e.queries_committed);
    let settled = e.updates_applied + e.updates_invalidated;
    if settled > 0 {
        put(
            values,
            "engine.invalidation_ratio",
            e.updates_invalidated as f64 / settled as f64,
            settled,
        );
    }
    put(
        values,
        "engine.queue_full_rejections",
        e.queue_full_rejections as f64,
        e.queries_submitted + settled,
    );
    put(values, "engine.rho_final", e.rho, 1);
    put(
        values,
        "engine.profit_pct_reported",
        e.profit_pct_reported,
        e.queries_submitted,
    );
    if e.wal_appended > 0 {
        put(
            values,
            "wal.appended",
            e.wal_appended as f64,
            e.wal_appended,
        );
        put(values, "wal.fsyncs", e.wal_fsyncs as f64, e.wal_appended);
        if e.wal_fsyncs > 0 {
            put(
                values,
                "wal.appends_per_fsync",
                e.wal_appended as f64 / e.wal_fsyncs as f64,
                e.wal_fsyncs,
            );
        }
        put(values, "wal.snapshots", e.snapshots as f64, e.wal_appended);
    }
}

/// The shutdown accounting gate: what the client saw acknowledged must
/// be what the engine says it did. `pending` requests were written but
/// their replies never read, so the engine may have done up to that
/// many more.
fn check_accounting(
    problems: &mut Vec<String>,
    e: &EngineCounters,
    ok_queries: u64,
    ok_updates: u64,
    pending: u64,
) {
    let settled = e.updates_applied + e.updates_invalidated + e.updates_dropped_overload;
    if !(ok_updates..=ok_updates + pending).contains(&settled) {
        problems.push(format!(
            "client saw {ok_updates} UPDs acknowledged (+{pending} unread) but the engine settled {settled} \
             (applied {} + invalidated {} + dropped {})",
            e.updates_applied, e.updates_invalidated, e.updates_dropped_overload
        ));
    }
    if !(ok_queries..=ok_queries + pending).contains(&e.queries_committed) {
        problems.push(format!(
            "client saw {ok_queries} queries answered OK (+{pending} unread) but the engine committed {}",
            e.queries_committed
        ));
    }
}

fn collect_problems(problems: &mut Vec<String>, tally: &Tally, who: &str) {
    if tally.violation_count > 0 {
        problems.push(format!(
            "{who} session: {} protocol violations",
            tally.violation_count
        ));
        problems.extend(
            tally
                .violations
                .iter()
                .map(|v| format!("{who} session: {v}")),
        );
    }
}

fn finish(
    values: Values,
    mut problems: Vec<String>,
    mut user: Tally,
    mut feed: Tally,
    measured_s: f64,
) -> Outcome {
    collect_problems(&mut problems, &user, "user");
    collect_problems(&mut problems, &feed, "feed");
    let mut spans = std::mem::take(&mut user.spans);
    spans.append(&mut feed.spans);
    Outcome {
        values,
        attempted: user.attempted + feed.attempted,
        failed: user.failed() + feed.failed(),
        problems,
        spans,
        measured_s,
    }
}

/// Seconds from `start` to the last reply any of `tallies` read: the
/// time the counted work actually took.
fn measured_since(start: Instant, tallies: &[&Tally]) -> f64 {
    tallies
        .iter()
        .filter_map(|t| t.last_reply)
        .max()
        .map_or(0.0, |last| {
            last.saturating_duration_since(start).as_secs_f64()
        })
}

fn until(end: Instant) -> Stop<'static> {
    Stop::At(end)
}

// --- wire_closed ---

fn wire_closed(p: Prepared, knobs: &Knobs) -> io::Result<Outcome> {
    let sut = p.sut.expect("wire workloads have a server");
    let addr = sut.addr();
    let epoch = Instant::now();
    let warm_end = epoch + WARMUP;
    let end = warm_end + Duration::from_secs_f64(knobs.seconds);
    let (mut user_pool, mut feed_pool) = (Pool::new(&p.user), Pool::new(&p.feed));
    let mut warm_user = Tally::new(false);
    let mut warm_feed = Tally::new(false);
    let mut user = Tally::new(knobs.traced);
    let mut feed = Tally::new(knobs.traced);
    let feed_result = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            closed_loop(
                addr,
                &mut feed_pool,
                epoch,
                until(warm_end),
                None,
                None,
                &mut warm_feed,
            )?;
            closed_loop(
                addr,
                &mut feed_pool,
                epoch,
                until(end),
                None,
                None,
                &mut feed,
            )
        });
        closed_loop(
            addr,
            &mut user_pool,
            epoch,
            until(warm_end),
            None,
            None,
            &mut warm_user,
        )?;
        // A fresh session every 20 requests: connect → first reply.
        closed_loop(
            addr,
            &mut user_pool,
            epoch,
            until(end),
            Some(20),
            None,
            &mut user,
        )?;
        feeder.join().expect("feed thread")
    });
    feed_result?;
    let measured_s = measured_since(warm_end, &[&user, &feed]);

    let mut values = Values::new();
    let mut problems = Vec::new();
    latency_values(&mut values, &mut user, &mut feed);
    rate_values(&mut values, &user, &feed, measured_s);
    let n = user.connect_first_reply.len() as u64;
    put_opt(
        &mut values,
        "connect_first_reply_p50_us",
        user.connect_first_reply.median_us_any(),
        n,
    );
    if let (Some(first), Some(warm)) = (
        user.after_connect_first_reply.median_us_any(),
        user.query_lat.percentile_us(0.5),
    ) {
        put(&mut values, "conn.accept_p50_us", first - warm, n);
    }
    let live = sut.engine();
    let fin = sut.shutdown();
    engine_values(&mut values, if knobs.traced { &live } else { &fin });
    check_accounting(
        &mut problems,
        &fin,
        warm_user.ok_queries + user.ok_queries,
        warm_feed.ok_updates + feed.ok_updates,
        0,
    );
    collect_problems(&mut problems, &warm_user, "user (warm-up)");
    collect_problems(&mut problems, &warm_feed, "feed (warm-up)");
    Ok(finish(values, problems, user, feed, measured_s))
}

// --- wire_open_paper ---

struct StageResult {
    multiplier: u32,
    offered_ops_s: f64,
    user: Tally,
    feed: Tally,
}

fn dues(schedule: &[(u64, Request)]) -> Vec<Due<'_>> {
    schedule
        .iter()
        .map(|(at_ns, request)| Due {
            at_ns: *at_ns,
            request,
        })
        .collect()
}

/// Keeps the two open-loop sessions in step without a fixed timetable:
/// a stage starts, for both, a moment after the slower session has its
/// last reply of the stage before, however long that took.
struct StageClock {
    epoch: Instant,
    barrier: Barrier,
    latest_ns: AtomicU64,
}

impl StageClock {
    /// Pause between one stage's last reply and the next one's start.
    const GAP: Duration = Duration::from_millis(20);

    fn new(epoch: Instant) -> StageClock {
        StageClock {
            epoch,
            barrier: Barrier::new(2),
            latest_ns: AtomicU64::new(0),
        }
    }

    /// Called by both sessions between stages; returns the same start
    /// to both.
    fn next_start(&self) -> Instant {
        self.latest_ns
            .fetch_max(since(self.epoch, Instant::now()), Ordering::SeqCst);
        self.barrier.wait();
        let latest = Duration::from_nanos(self.latest_ns.load(Ordering::SeqCst));
        // Neither may move `latest_ns` on before both have read it.
        self.barrier.wait();
        self.epoch + latest + Self::GAP
    }
}

/// One open-loop session's run through every stage: a tally and the
/// start per stage, and what the stages had given up on.
fn open_session<'a>(
    mut open: OpenLoop<'a>,
    stages: &'a [Stage],
    pick: fn(&Stage) -> &Vec<(u64, Request)>,
    clock: &StageClock,
    traced: bool,
) -> (Vec<Tally>, Vec<Instant>, Leftovers) {
    let mut tallies = Vec::with_capacity(stages.len());
    let mut starts = Vec::with_capacity(stages.len());
    for stage in stages {
        let schedule = dues(pick(stage));
        let start = clock.next_start();
        let mut tally = Tally::new(traced);
        open.stage(&schedule, clock.epoch, start, &mut tally);
        tallies.push(tally);
        starts.push(start);
    }
    let mut last = tallies.pop().expect("at least one stage");
    let late = open.finish(clock.epoch, &mut last);
    tallies.push(last);
    (tallies, starts, late)
}

fn wire_open_paper(p: Prepared, knobs: &Knobs) -> io::Result<Outcome> {
    let sut = p.sut.expect("wire workloads have a server");
    let addr = sut.addr();
    let clock = StageClock::new(Instant::now());
    // Both sessions connect before either starts, so that neither can
    // be left waiting at the clock for one that never came.
    let (user_session, feed_session) = (OpenLoop::connect(addr)?, OpenLoop::connect(addr)?);
    let (user_side, feed_side) = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            open_session(
                feed_session,
                &p.stages,
                |stage| &stage.feed,
                &clock,
                knobs.traced,
            )
        });
        let user = open_session(
            user_session,
            &p.stages,
            |stage| &stage.user,
            &clock,
            knobs.traced,
        );
        (user, feeder.join().expect("feed thread"))
    });
    let (user_tallies, starts, user_late) = user_side;
    let (feed_tallies, _, feed_late) = feed_side;

    let mut stages: Vec<StageResult> = p
        .stages
        .iter()
        .zip(user_tallies.into_iter().zip(feed_tallies))
        .map(|(stage, (user, feed))| StageResult {
            multiplier: stage.multiplier,
            offered_ops_s: (stage.user.len() + stage.feed.len()) as f64
                / stage.duration.as_secs_f64(),
            user,
            feed,
        })
        .collect();
    let warm = stages.remove(0);
    // Each stage's clock runs from its start to its last reply.
    let measured_s: f64 = stages
        .iter()
        .zip(&starts[1..])
        .map(|(s, &start)| measured_since(start, &[&s.user, &s.feed]))
        .sum();

    let mut values = Values::new();
    let mut problems = Vec::new();
    let mut max_rate_ok = 0.0f64;
    println!("  stage   offered ops/s  query p50/p99 us  slo_frac  failed_frac  gen.late_p99_us");
    for stage in &mut stages {
        let attempted = stage.user.attempted + stage.feed.attempted;
        let failed_frac =
            (stage.user.failed() + stage.feed.failed()) as f64 / attempted.max(1) as f64;
        let slo_frac = stage.user.within_rtmax as f64 / stage.user.queries_attempted.max(1) as f64;
        let mut late = Samples::default();
        late.extend(&stage.user.late);
        late.extend(&stage.feed.late);
        let late_p99 = late.percentile_us(0.99);
        let (p50, p99) = (
            stage.user.query_lat.percentile_us(0.5),
            stage.user.query_lat.percentile_us(0.99),
        );
        println!(
            "  x{:<6} {:>13.0}  {:>7.0} / {:<7.0}  {slo_frac:>8.4}  {failed_frac:>11.5}  {:>15.1}",
            stage.multiplier,
            stage.offered_ops_s,
            p50.unwrap_or(f64::NAN),
            p99.unwrap_or(f64::NAN),
            late_p99.unwrap_or(f64::NAN),
        );
        // A stage counts toward the highest sustainable rate only if
        // the generator itself kept to its schedule.
        if slo_frac >= 0.99 && failed_frac <= 0.01 && late_p99.is_some_and(|l| l < 1_000.0) {
            max_rate_ok = max_rate_ok.max(stage.offered_ops_s);
        }
        let n = stage.user.query_lat.len() as u64;
        match stage.multiplier {
            40 => {
                put_opt(&mut values, "gen.x40.query_p99_us", p99, n);
                put(&mut values, "gen.x40.failed_frac", failed_frac, attempted);
            }
            80 => {
                put_opt(&mut values, "gen.x80.query_p99_us", p99, n);
                put(&mut values, "gen.x80.failed_frac", failed_frac, attempted);
            }
            _ => {}
        }
    }
    put(
        &mut values,
        "max_rate_ok_ops_s",
        max_rate_ok,
        stages.len() as u64,
    );

    // Latency metrics come from the x10 stage; throughput, SLO share,
    // profit and failures from all three.
    let mut stages = stages.into_iter();
    let x10 = stages.next().expect("three stages");
    let (mut user, mut feed) = (x10.user, x10.feed);
    latency_values(&mut values, &mut user, &mut feed);
    for later in stages {
        user.absorb(later.user);
        feed.absorb(later.feed);
    }
    rate_values(&mut values, &user, &feed, measured_s);
    let mut late = Samples::default();
    late.extend(&user.late);
    late.extend(&feed.late);
    put_opt(
        &mut values,
        "gen.late_p99_us",
        late.percentile_us(0.99),
        late.len() as u64,
    );
    put(
        &mut values,
        "gen.poll_grain_us",
        POLL_GRAIN.as_secs_f64() * 1e6,
        1,
    );

    let live = sut.engine();
    let fin = sut.shutdown();
    engine_values(&mut values, if knobs.traced { &live } else { &fin });
    check_accounting(
        &mut problems,
        &fin,
        warm.user.ok_queries + user.ok_queries + user_late.late_query_acks,
        warm.feed.ok_updates + feed.ok_updates + feed_late.late_update_acks,
        user_late.unread + feed_late.unread,
    );
    collect_problems(&mut problems, &warm.user, "user (warm-up)");
    collect_problems(&mut problems, &warm.feed, "feed (warm-up)");
    Ok(finish(values, problems, user, feed, measured_s))
}

// --- wire_flood_durable ---

/// Updates the feed keeps in flight: half the admission queue, so
/// `ERR overloaded` is an event, not the steady state.
fn flood_window() -> usize {
    sut::queue_capacity() / 4
}

fn wire_flood_durable(p: Prepared, knobs: &Knobs) -> io::Result<Outcome> {
    let sut = p.sut.expect("wire workloads have a server");
    let addr = sut.addr();
    let epoch = Instant::now();
    let warm_end = epoch + WARMUP;
    let end = warm_end + Duration::from_secs_f64(knobs.seconds);
    let (mut user_pool, mut feed_pool) = (Pool::new(&p.user), Pool::new(&p.feed));
    let mut warm_user = Tally::new(false);
    let mut warm_feed = Tally::new(false);
    let mut user = Tally::new(knobs.traced);
    let mut feed = Tally::new(knobs.traced);
    let window = flood_window();
    let feed_result = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            flood(
                addr,
                &mut feed_pool,
                epoch,
                until(warm_end),
                window,
                &mut warm_feed,
            )?;
            flood(addr, &mut feed_pool, epoch, until(end), window, &mut feed)
        });
        closed_loop(
            addr,
            &mut user_pool,
            epoch,
            until(warm_end),
            None,
            None,
            &mut warm_user,
        )?;
        closed_loop(
            addr,
            &mut user_pool,
            epoch,
            until(end),
            None,
            None,
            &mut user,
        )?;
        feeder.join().expect("feed thread")
    });
    feed_result?;
    let measured_s = measured_since(warm_end, &[&user, &feed]);

    let mut values = Values::new();
    let mut problems = Vec::new();
    let live = sut.engine();
    let fin = sut.shutdown();
    engine_values(&mut values, if knobs.traced { &live } else { &fin });
    check_accounting(
        &mut problems,
        &fin,
        warm_user.ok_queries + user.ok_queries,
        warm_feed.ok_updates + feed.ok_updates,
        0,
    );
    collect_problems(&mut problems, &warm_user, "user (warm-up)");
    collect_problems(&mut problems, &warm_feed, "feed (warm-up)");
    latency_values(&mut values, &mut user, &mut feed);
    rate_values(&mut values, &user, &feed, measured_s);
    Ok(finish(values, problems, user, feed, measured_s))
}

// --- repl_ship ---

/// How often phase A looks at the replica's applied LSN.
const REPLICA_POLL: Duration = Duration::from_micros(50);

/// Longest the feed waits for the replica to cover an LSN.
const REPLICA_PATIENCE: Duration = Duration::from_secs(30);

/// Phase A's share of the run, and phase B's updates per second of run
/// (20,000 at the default ten seconds — about four seconds of catch-up
/// at the ship path's present 5k frames/s). Phase B is bounded by count,
/// not time, or catch-up would outlive the run.
const PING_SHARE: f64 = 0.6;
const CATCHUP_UPDATES_PER_RUN_SECOND: f64 = 2_000.0;

/// Blocks until the replica has applied `lsn`; `None` after
/// [`REPLICA_PATIENCE`].
fn wait_applied(sut: &Sut, lsn: u64) -> Option<Instant> {
    let give_up = Instant::now() + REPLICA_PATIENCE;
    while sut.replica_applied_lsn() < lsn {
        if Instant::now() > give_up {
            return None;
        }
        std::thread::sleep(REPLICA_POLL);
    }
    Some(Instant::now())
}

#[derive(Default)]
struct FeedReport {
    /// Written-to-applied-on-replica, one sample per phase-A update.
    replicate: Samples,
    poll_gaps: Samples,
    /// First phase-B write until the replica covered the last update.
    catchup: Option<Duration>,
    problems: Vec<String>,
    warm_acked: u64,
}

/// Phase A's unit of work: writes one `UPD`, then looks at the socket
/// (for its reply) and at the replica (for `lsn`) every
/// [`REPLICA_POLL`] until both have answered. Returns whether the
/// update was acknowledged and, if the replica applied it, how long
/// after the write.
///
/// The clock starts at the write, not at the `OK`: as found, the reply
/// takes longer to reach the client than the frame takes to reach the
/// replica, so `OK` → applied would read zero.
fn ping(
    sut: &Sut,
    session: &mut Session,
    request: &Request,
    lsn: u64,
    tally: &mut Tally,
    gaps: &mut Samples,
) -> io::Result<(bool, Option<u64>)> {
    tally.attempt(request);
    session.send(request.line.as_bytes())?;
    let written = Instant::now();
    let give_up = written + REPLICA_PATIENCE;
    let (mut acked, mut applied_ns) = (None, None);
    let mut last = written;
    loop {
        if applied_ns.is_none() && sut.replica_applied_lsn() >= lsn {
            applied_ns = Some(since(written, Instant::now()));
        }
        if acked.is_none() {
            session.fill()?;
            if let Some(line) = session.pop_line() {
                let done = Instant::now();
                let reply = classify(request, &line);
                acked = Some(reply == Reply::UpdateOk);
                tally.reply(request, reply, done, since(written, done), true);
            }
        }
        match acked {
            Some(true) if applied_ns.is_some() => return Ok((true, applied_ns)),
            Some(false) => return Ok((false, None)),
            _ => {}
        }
        if last > give_up {
            if acked.is_none() {
                tally.unanswered += 1;
            }
            return Ok((acked == Some(true), None));
        }
        std::thread::sleep(REPLICA_POLL);
        let now = Instant::now();
        gaps.push(since(last, now));
        last = now;
    }
}

/// The feed session of `repl_ship`. Every acknowledged `UPD` is one WAL
/// frame and this is the only writing session, so the n-th `OK` carries
/// LSN n.
fn repl_feed(
    sut: &Sut,
    pool: &mut Pool<'_>,
    epoch: Instant,
    ping_end: Instant,
    catchup_updates: u64,
    pings: &mut Tally,
    floods: &mut Tally,
) -> io::Result<FeedReport> {
    let mut report = FeedReport::default();
    let mut acked = 0u64;
    let mut session = Session::connect(sut.addr())?;
    session.set_nonblocking(true)?;
    let mut warm = Tally::new(false);
    let mut unused = Samples::default();
    // Phase A: one update at a time, each followed to the replica.
    loop {
        let warming = Instant::now() < epoch + WARMUP;
        if !warming && Instant::now() >= ping_end {
            break;
        }
        let (tally, gaps) = if warming {
            (&mut warm, &mut unused)
        } else {
            (&mut *pings, &mut report.poll_gaps)
        };
        match ping(sut, &mut session, pool.take(), acked + 1, tally, gaps)? {
            (false, _) => continue, // refused or unanswered: counted failed, carries no LSN
            (true, Some(ns)) => {
                acked += 1;
                if !warming {
                    report.replicate.push(ns);
                }
            }
            (true, None) => {
                report
                    .problems
                    .push(format!("the replica never applied LSN {}", acked + 1));
                return Ok(report);
            }
        }
        if warming {
            report.warm_acked = acked;
        }
    }
    session.quit();
    // Phase B: a fixed number of updates, timed from the first write
    // until the replica covers the last.
    let started = Instant::now();
    flood(
        sut.addr(),
        pool,
        epoch,
        Stop::After(catchup_updates),
        flood_window(),
        floods,
    )?;
    acked += floods.ok_updates;
    match wait_applied(sut, acked) {
        Some(applied) => report.catchup = Some(applied.duration_since(started)),
        None => report
            .problems
            .push(format!("the replica never caught up to LSN {acked}")),
    }
    Ok(report)
}

fn repl_ship(p: Prepared, knobs: &Knobs) -> io::Result<Outcome> {
    let sut = p.sut.expect("wire workloads have a server");
    let addr = sut.addr();
    let epoch = Instant::now();
    let ping_end = epoch + WARMUP + Duration::from_secs_f64(knobs.seconds * PING_SHARE);
    let catchup_updates = (knobs.seconds * CATCHUP_UPDATES_PER_RUN_SECOND).round() as u64;
    let (mut user_pool, mut feed_pool) = (Pool::new(&p.user), Pool::new(&p.feed));
    let mut warm_user = Tally::new(false);
    let mut user = Tally::new(knobs.traced);
    let mut pings = Tally::new(knobs.traced);
    let mut floods = Tally::new(knobs.traced);
    let feed_done = AtomicBool::new(false);

    let (read, fed) = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            let fed = repl_feed(
                &sut,
                &mut feed_pool,
                epoch,
                ping_end,
                catchup_updates,
                &mut pings,
                &mut floods,
            );
            feed_done.store(true, Ordering::Release);
            fed
        });
        // The user reads from the primary meanwhile: one request in
        // flight and 10 ms of think time, so reads stay a light load
        // beside the replication path however fast they get.
        let think = Some(Duration::from_millis(10));
        let read = closed_loop(
            addr,
            &mut user_pool,
            epoch,
            until(epoch + WARMUP),
            None,
            think,
            &mut warm_user,
        )
        .and_then(|()| {
            closed_loop(
                addr,
                &mut user_pool,
                epoch,
                Stop::When(&feed_done),
                None,
                think,
                &mut user,
            )
        });
        (read, feeder.join().expect("feed thread"))
    });
    let mut report = fed?;
    read?;
    let measured_s = measured_since(epoch + WARMUP, &[&user, &pings, &floods]);

    let mut values = Values::new();
    let mut problems = std::mem::take(&mut report.problems);
    let n = report.replicate.len() as u64;
    put_opt(
        &mut values,
        "replicate_p50_us",
        report.replicate.percentile_us(0.5),
        n,
    );
    put_opt(
        &mut values,
        "replicate_p99_us",
        report.replicate.percentile_us(0.99),
        n,
    );
    put_opt(
        &mut values,
        "repl.poll_resolution_us",
        report.poll_gaps.median_us_any(),
        report.poll_gaps.len() as u64,
    );
    let catchup_rate = report
        .catchup
        .map(|wall| floods.ok_updates as f64 / wall.as_secs_f64());
    put_opt(
        &mut values,
        "repl_catchup_per_s",
        catchup_rate,
        floods.ok_updates,
    );
    let flooded = floods.ok_updates;
    let mut feed = pings;
    feed.absorb(floods);

    // The REPL verb, as an operator would read it.
    let mut operator = Session::connect(addr)?;
    let repl = operator.request_multiline("REPL")?;
    operator.quit();
    let replica_line = repl.iter().find(|l| l.starts_with("replica "));
    let field = |key: &str| -> Option<f64> {
        replica_line?
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    match (field("frames_shipped"), field("lag")) {
        (Some(shipped), Some(lag)) => {
            put(&mut values, "repl.frames_shipped", shipped, 1);
            put(&mut values, "repl.lag_frames_final", lag, 1);
        }
        _ => problems.push(format!("REPL reports no replica: {repl:?}")),
    }
    let live = sut.engine();
    let replica = sut.replica().expect("a shipping server has a replica");
    put(&mut values, "repl.bootstraps", replica.bootstraps as f64, 1);
    put(&mut values, "repl.reconnects", replica.reconnects as f64, 1);
    let acked = report.warm_acked + feed.ok_updates;
    if replica.applied_lsn != live.wal_last_lsn || live.wal_last_lsn != acked {
        problems.push(format!(
            "replica applied_lsn {} / primary wal_last_lsn {} / client-acknowledged UPDs {acked} must all agree",
            replica.applied_lsn, live.wal_last_lsn
        ));
    }
    let fin = sut.shutdown();
    engine_values(&mut values, if knobs.traced { &live } else { &fin });
    check_accounting(
        &mut problems,
        &fin,
        warm_user.ok_queries + user.ok_queries,
        acked,
        0,
    );
    collect_problems(&mut problems, &warm_user, "user (warm-up)");
    latency_values(&mut values, &mut user, &mut feed);
    rate_values(&mut values, &user, &feed, measured_s);
    // On this workload the operations that complete are replicated
    // updates, so that rate is its `ops_per_s`.
    match catchup_rate {
        Some(rate) => put(&mut values, "ops_per_s", rate, flooded),
        None => {
            values.remove("ops_per_s");
        }
    }
    Ok(finish(values, problems, user, feed, measured_s))
}

// --- virt_paper_trace ---

fn virt_paper_trace(p: Prepared, knobs: &Knobs) -> Outcome {
    let trace = p.trace.expect("the virtual workload has a trace");
    let events = trace.events();
    let budget = Duration::from_secs_f64(knobs.seconds);
    let mut problems = Vec::new();

    // The two engines take turns for the whole run, so that a slow
    // spell of the sandbox (they last a second or two) hits both alike
    // and neither is measured only inside one.
    let started = Instant::now();
    let (mut virt, mut sim) = (Vec::new(), Vec::new());
    while virt.len() < 2 || started.elapsed() < budget {
        virt.push(sut::virtual_pass(&trace, knobs.traced));
        sim.push(sut::simulator_pass(&trace));
    }

    // Same trace, same seed: every pass must be bit-identical.
    let first = &virt[0];
    for (i, pass) in virt.iter().enumerate().skip(1) {
        let same = pass.profit_pct.to_bits() == first.profit_pct.to_bits()
            && pass.end_us == first.end_us
            && pass.engine.queries_committed == first.engine.queries_committed
            && pass.engine.updates_applied == first.engine.updates_applied
            && pass.engine.updates_invalidated == first.engine.updates_invalidated;
        if !same {
            problems.push(format!(
                "run_virtual pass {i} differs from pass 0: profit {} vs {}, end_us {} vs {}",
                pass.profit_pct, first.profit_pct, pass.end_us, first.end_us
            ));
        }
    }
    for (i, pass) in sim.iter().enumerate().skip(1) {
        if pass.profit_pct.to_bits() != sim[0].profit_pct.to_bits()
            || pass.dispatches != sim[0].dispatches
        {
            problems.push(format!(
                "Simulator pass {i} differs from pass 0: profit {} vs {}, dispatches {} vs {}",
                pass.profit_pct, sim[0].profit_pct, pass.dispatches, sim[0].dispatches
            ));
        }
    }
    let e = &first.engine;
    let contracts = trace.contracts();
    if e.queries_submitted != contracts.len() as u64 {
        problems.push(format!(
            "the trace has {} queries but the engine admitted {}",
            contracts.len(),
            e.queries_submitted
        ));
    }
    // The client's own arithmetic over the per-query answers must land
    // on the engine's ledger (step and linear contracts alike).
    let mut response = Samples::default();
    let (mut gained, mut offered, mut within_rtmax) = (0.0, 0.0, 0u64);
    for (contract, answer) in contracts.iter().zip(&first.answers) {
        offered += contract.total_max();
        if let Some((rt_ms, uu)) = *answer {
            gained += contract.qos_profit(rt_ms) + contract.qod_profit(uu);
            within_rtmax += u64::from(rt_ms < contract.rtmax_ms);
            response.push((rt_ms * 1e6).round() as u64);
        }
    }
    let recomputed = 100.0 * gained / offered;
    if (recomputed - first.profit_pct).abs() > 1e-6 {
        problems.push(format!(
            "the engine reports {} % profit but its per-query answers add up to {recomputed} %",
            first.profit_pct
        ));
    }
    let queries = contracts.len() as u64;

    let mut values = Values::new();
    // The fastest pass, not the median one: the work is deterministic
    // and single-threaded, so whatever a pass takes beyond the fastest
    // is the sandbox (measured: 205..330 ms within one run).
    let virt_wall = fastest(
        &virt
            .iter()
            .map(|v| v.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let sim_wall = fastest(&sim.iter().map(|v| v.wall.as_secs_f64()).collect::<Vec<_>>());
    let passes = virt.len() as u64;
    put(
        &mut values,
        "events_per_s",
        events as f64 / virt_wall,
        passes,
    );
    put(&mut values, "ops_per_s", events as f64 / virt_wall, passes);
    put(
        &mut values,
        "sim_events_per_s",
        events as f64 / sim_wall,
        sim.len() as u64,
    );
    put(&mut values, "profit_pct", first.profit_pct, queries);
    // What the simulated users saw, on the trace's virtual clock: these
    // repeat exactly per seed and move only if scheduling decisions do.
    put_opt(
        &mut values,
        "query_p50_us",
        response.percentile_us(0.5),
        response.len() as u64,
    );
    put_opt(
        &mut values,
        "query_p99_us",
        response.percentile_us(0.99),
        response.len() as u64,
    );
    put(
        &mut values,
        "query_slo_frac",
        within_rtmax as f64 / queries as f64,
        queries,
    );
    let expired = queries - e.queries_committed;
    put(
        &mut values,
        "failed_frac",
        expired as f64 / events as f64,
        events,
    );
    put(
        &mut values,
        "virt.dispatches",
        (e.queries_committed + e.updates_applied) as f64,
        passes,
    );
    put(
        &mut values,
        "virt.updates_invalidated",
        e.updates_invalidated as f64,
        passes,
    );
    put(&mut values, "virt.end_us", first.end_us as f64, passes);
    put(
        &mut values,
        "sim.dispatches",
        sim[0].dispatches as f64,
        sim.len() as u64,
    );
    put(&mut values, "gen.unanswered", 0.0, events);
    engine_values(&mut values, e);
    println!(
        "  run_virtual: {} passes, fastest {:.3} s; Simulator+Quts: {} passes, fastest {:.3} s (profit {:.6} %, committed {}, applied {}, invalidated {})",
        virt.len(),
        virt_wall,
        sim.len(),
        sim_wall,
        sim[0].profit_pct,
        sim[0].committed,
        sim[0].updates_applied,
        sim[0].updates_invalidated,
    );
    Outcome {
        values,
        attempted: events,
        failed: expired,
        problems,
        spans: Vec::new(),
        measured_s: knobs.seconds,
    }
}

/// The first request lines of a workload, for the layer probes: what
/// the user and feed sessions would send, interleaved.
pub fn probe_lines(workload: Workload, knobs: &Knobs) -> Vec<Request> {
    let mut lines: Vec<Request> = match workload {
        // The open loop's mix also stands in for the paper trace.
        Workload::WireOpenPaper | Workload::VirtPaperTrace => {
            let symbols = sut::symbols();
            let trace = PaperTrace::generate(knobs.seed, 0, Some(70.0), 0.0);
            let mut all = trace.wire_queries(&symbols);
            all.extend(trace.wire_updates(&symbols));
            all.sort_by_key(|t| t.at_us);
            all.into_iter().map(|t| t.request).collect()
        }
        _ => {
            let p = inputs(workload, knobs);
            p.user
                .into_iter()
                .zip(p.feed)
                .flat_map(|(u, f)| [u, f])
                .collect()
        }
    };
    lines.truncate(sut::PROBE_CALLS);
    lines
}
