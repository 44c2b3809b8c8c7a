//! The two live-system probes `benchmark/` does not cover — shard scaling
//! (with the cross-shard fraction sweep) and failover MTTR — printed as
//! tables, with the acceptance contract checked here: a violated bar
//! (see [`check_contract`]) exits non-zero, so CI needs no parser.
//!
//! Everything else about the live system's speed is measured by
//! `benchmark/` and recorded in `BENCHMARK.json`. The `kill` scenario
//! injects a scheduler panic per iteration, so backtraces on stderr are
//! expected.

use quts_bench::perf::per_sec;
use quts_db::simdir::SimDir;
use quts_db::{Store, Trade};
use quts_engine::{
    Cluster, ControllerConfig, DurabilityConfig, Engine, EngineConfig, FailoverReport, FaultPlan,
    FsyncPolicy, GroupCommitConfig, LinkFaultPlan, ReplicaConfig, ShardConfig, ShardMap,
    ShardedEngine, ShipConfig, SubmitError,
};
use quts_metrics::{LogHistogram, TextTable};
use std::time::{Duration, Instant};

fn main() {
    let shard = measure_shard_scaling();
    print!("{}", render_shard_scaling(&shard));
    let fo = measure_failover_mttr();
    print!("{}", render_failover_mttr(&fo));
    if let Err(violations) = check_contract(&shard, &fo) {
        for v in &violations {
            eprintln!("contract violated: {v}");
        }
        std::process::exit(1);
    }
    println!("probe contract ok");
}

/// Submits until the inbox has room; any other refusal is a probe
/// failure.
fn admit<T>(mut submit: impl FnMut() -> Result<T, SubmitError>) -> T {
    loop {
        match submit() {
            Ok(t) => return t,
            Err(SubmitError::QueueFull) => std::thread::yield_now(),
            Err(e) => panic!("probe submission failed: {e:?}"),
        }
    }
}

fn probe_trade(stocks: u32, i: u64) -> Trade {
    Trade {
        stock: quts_db::StockId((i % stocks as u64) as u32),
        price: 100.0 + (i % 97) as f64 * 0.25,
        volume: 100 + i % 900,
        trade_time_ms: i,
    }
}

/// One `shard_scaling` throughput row: durable-acked update ingest over
/// a sharded engine.
struct ShardScalingCell {
    shards: u32,
    submitters: u32,
    updates: u64,
    wall: Duration,
    ack_p50_us: u64,
    ack_p99_us: u64,
}

impl ShardScalingCell {
    fn updates_per_sec(&self) -> f64 {
        per_sec(self.updates, self.wall)
    }
}

/// One cross-shard-fraction row: read throughput as spanning aggregates
/// (2PL coordinator) displace single-item queries.
struct CrossFractionCell {
    shards: u32,
    cross_percent: u64,
    queries: u64,
    cross_submitted: u64,
    cross_committed: u64,
    wall: Duration,
}

struct ShardScalingProbe {
    stocks: u32,
    updates_per_submitter: u64,
    cells: Vec<ShardScalingCell>,
    cross_cells: Vec<CrossFractionCell>,
}

/// The sharding acceptance probe.
///
/// **Weak scaling**: each shard gets the same fixed crew of durable-ack
/// submitters (every submit waits for its covering fsync before the
/// next), so the offered load grows with the shard count. A single
/// engine serializes all of it behind one WAL and one group-commit
/// pipeline; N shards run N independent pipelines, so total updates/sec
/// should grow near-linearly — the acceptance bar is ≥3× at 4 shards.
///
/// The WAL runs on a simulated 1 ms flush device (a `SimDir` sync
/// delay, installed with `FaultPlan::disk`):
/// the probed resource is *flush latency*, blocking IO that per-shard
/// WAL streams genuinely overlap — including on a single-core host,
/// where a sleeping shard frees the CPU exactly like a real disk would.
/// Without the simulated device the numbers just measure the host's
/// (often virtualized, flush-serializing) page-cache sync cost, which
/// caps scaling regardless of architecture.
///
/// **Cross-fraction sweep**: at 4 shards, a rising fraction of reads
/// become spanning portfolios through the 2PL coordinator, measuring
/// what cross-shard coordination costs relative to pure single-item
/// traffic.
fn measure_shard_scaling() -> ShardScalingProbe {
    const STOCKS: u32 = 256;
    const N_PER_SUBMITTER: u64 = 250;

    let mut cells = Vec::new();
    for &shards in &[1u32, 2, 4, 8] {
        let dir = std::env::temp_dir().join(format!(
            "quts-shard-bench-{}-scale{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let slow_flush = SimDir::default().sync_delay(Duration::from_millis(1));
        let engine = EngineConfig::default()
            .with_durability(
                DurabilityConfig::new(&dir)
                    .with_fsync(FsyncPolicy::Always)
                    .with_snapshot_every(u64::MAX)
                    .with_group_commit(
                        GroupCommitConfig::default()
                            .with_max_batch(256)
                            .with_max_delay_us(200),
                    ),
            )
            .with_fault_plan(FaultPlan::default().disk(slow_flush));
        let map = ShardMap::new(STOCKS, shards);
        let engine = ShardedEngine::try_start(
            Store::with_synthetic_stocks(STOCKS),
            ShardConfig::new(shards).with_engine(engine),
        )
        .expect("sharded WAL dirs are creatable");
        let handle = engine.handle();
        let started = Instant::now();
        // One durable-ack submitter per shard: each shard's pipeline is
        // then bound by its own flush latency, the resource independent
        // per-shard WAL streams parallelize.
        let workers: Vec<_> = (0..shards)
            .map(|k| {
                let h = handle.clone();
                let members: Vec<quts_db::StockId> = map.members(k).to_vec();
                std::thread::spawn(move || {
                    let mut hist = LogHistogram::default();
                    for i in 0..N_PER_SUBMITTER {
                        let stock = members[i as usize % members.len()];
                        let trade = Trade {
                            stock,
                            ..probe_trade(STOCKS, i)
                        };
                        let t0 = Instant::now();
                        admit(|| h.submit_update_durable(trade))
                            .recv_timeout(Duration::from_secs(30))
                            .expect("durable ack");
                        hist.record(t0.elapsed().as_micros() as u64);
                    }
                    hist
                })
            })
            .collect();
        let mut ack = LogHistogram::default();
        for w in workers {
            ack.merge(&w.join().expect("submitter thread"));
        }
        let wall = started.elapsed();
        let stats = engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let submitted = N_PER_SUBMITTER * shards as u64;
        // Every durable ack implies a WAL append on the owning shard.
        let appended: u64 = stats.iter().map(|s| s.wal_appended).sum();
        assert_eq!(appended, submitted, "shard probe lost WAL appends");
        let q = |h: &LogHistogram, p: f64| h.quantile(p).unwrap_or(0);
        cells.push(ShardScalingCell {
            shards,
            submitters: shards,
            updates: submitted,
            wall,
            ack_p50_us: q(&ack, 0.50),
            ack_p99_us: q(&ack, 0.99),
        });
    }

    // Cross-shard fraction sweep at 4 shards, in-memory (the coordinator
    // cost is scheduling, not IO).
    let mut cross_cells = Vec::new();
    const CROSS_SHARDS: u32 = 4;
    const READERS: u32 = 4;
    const QUERIES_PER_READER: u64 = 250;
    let map = ShardMap::new(STOCKS, CROSS_SHARDS);
    let span_all: Vec<(quts_db::StockId, f64)> = (0..CROSS_SHARDS)
        .map(|k| (map.members(k)[0], 1.0))
        .collect();
    for &cross_percent in &[0u64, 5, 20] {
        let engine = ShardedEngine::start(
            Store::with_synthetic_stocks(STOCKS),
            ShardConfig::new(CROSS_SHARDS).with_engine(EngineConfig::default()),
        );
        let handle = engine.handle();
        let started = Instant::now();
        let workers: Vec<_> = (0..READERS)
            .map(|r| {
                let h = handle.clone();
                let span_all = span_all.clone();
                let members: Vec<quts_db::StockId> = map.members(r % CROSS_SHARDS).to_vec();
                std::thread::spawn(move || {
                    let qc = quts_qc::QualityContract::step(5.0, 1000.0, 5.0, 1)
                        .with_lifetime_ms(30_000.0);
                    for i in 0..QUERIES_PER_READER {
                        let op = if cross_percent > 0 && i % (100 / cross_percent) == 0 {
                            quts_db::QueryOp::Portfolio(span_all.clone())
                        } else {
                            quts_db::QueryOp::Lookup(members[i as usize % members.len()])
                        };
                        admit(|| h.submit_query(op.clone(), qc.clone()))
                            .recv_timeout(Duration::from_secs(30))
                            .expect("query resolves");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("reader thread");
        }
        let wall = started.elapsed();
        let cross = handle.cross_shard_stats();
        engine.shutdown();
        cross_cells.push(CrossFractionCell {
            shards: CROSS_SHARDS,
            cross_percent,
            queries: READERS as u64 * QUERIES_PER_READER,
            cross_submitted: cross.submitted,
            cross_committed: cross.committed,
            wall,
        });
    }

    ShardScalingProbe {
        stocks: STOCKS,
        updates_per_submitter: N_PER_SUBMITTER,
        cells,
        cross_cells,
    }
}

/// One failover-MTTR measurement: a two-replica cluster under the
/// controller, killed (scheduler panic), partitioned (links go dark) or
/// manually deposed (`failover_now`, the zombie-demotion path), timed
/// through the controller's own phase clocks — detection, promotion,
/// router re-point — as its `FailoverReport`s record them. Each phase is
/// a `(p50, p99)` pair in µs over the cell's iterations.
struct FailoverMttrCell {
    scenario: &'static str,
    iterations: u32,
    detect_us: (u64, u64),
    promote_us: (u64, u64),
    repoint_us: (u64, u64),
    mttr_us: (u64, u64),
}

struct FailoverMttrProbe {
    replicas: u32,
    baseline_updates: u64,
    cells: Vec<FailoverMttrCell>,
}

fn measure_failover_mttr() -> FailoverMttrProbe {
    const STOCKS: u32 = 16;
    const N: u64 = 128;
    const ITERS: u32 = 5;
    let scenarios: [&'static str; 3] = ["kill", "partition", "zombie_manual"];
    // Exact (p50, p99) of one phase's samples.
    let quantiles = |mut samples: Vec<u64>| -> (u64, u64) {
        samples.sort_unstable();
        let exact = |p: f64| match samples.len() {
            0 => 0,
            n => samples[((n - 1) as f64 * p).round() as usize],
        };
        (exact(0.50), exact(0.99))
    };
    let mut cells = Vec::new();
    for scenario in scenarios {
        let mut reports = Vec::new();
        for iter in 0..ITERS {
            let base = std::env::temp_dir().join(format!(
                "quts-failover-mttr-{}-{scenario}-{iter}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&base);
            let mut engine_cfg = EngineConfig::default().with_durability(
                DurabilityConfig::new(base.join("primary"))
                    .with_fsync(FsyncPolicy::Always)
                    .with_snapshot_every(u64::MAX),
            );
            if scenario == "kill" {
                engine_cfg = engine_cfg.with_fault_plan(FaultPlan::default().panic_after(N + 4));
            }
            let mut ship_cfg = ShipConfig::default().with_heartbeat(Duration::from_millis(10));
            if scenario == "partition" {
                ship_cfg = ship_cfg.with_fault(LinkFaultPlan::default().partition_after(N + 4));
            }
            let replicas = ["r1", "r2"].map(|name| {
                ReplicaConfig::new(name, base.join(name))
                    .with_ack_every(1)
                    .with_backoff(Duration::from_millis(1), Duration::from_millis(20))
            });
            // The injected fault arms this primary and this listener only;
            // the cluster derives fault-free templates for what follows.
            let store = Store::with_synthetic_stocks(STOCKS);
            let engine = Engine::try_start(store, engine_cfg.clone()).expect("primary");
            let auto = scenario != "zombie_manual";
            let cluster = Cluster::launch(
                engine,
                &engine_cfg,
                Some(ship_cfg),
                replicas.into(),
                ControllerConfig::default()
                    .with_heartbeat_timeout(Duration::from_millis(130))
                    .with_auto_failover(auto),
            )
            .expect("cluster");

            // Replica-acked baseline, so the promotion has real history
            // to cover.
            let primary = cluster.primary();
            for i in 0..N {
                let durable = admit(|| primary.submit_update_durable(probe_trade(STOCKS, i)));
                durable.recv().expect("durable");
            }
            let deadline = Instant::now() + Duration::from_secs(60);
            let replicas = || cluster.router().replica_stats();
            while !replicas().iter().all(|s| s.durable_lsn >= N) {
                assert!(
                    Instant::now() < deadline,
                    "failover probe baseline never replicated ({scenario})"
                );
                std::thread::sleep(Duration::from_millis(1));
            }

            let report = if auto {
                // Push the primary (or its links) over the fault point
                // with live fire-and-forget load, then let the
                // controller notice and recover on its own.
                let deadline = Instant::now() + Duration::from_secs(60);
                let mut i = N;
                while cluster.stats().failovers == 0 {
                    let _ = cluster.primary().submit_update(probe_trade(STOCKS, i));
                    i += 1;
                    assert!(
                        Instant::now() < deadline,
                        "failover probe: controller never fired ({scenario})"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                cluster.reports().remove(0)
            } else {
                // The operator deposes a live primary: detection is
                // free, promotion + re-point are the whole MTTR.
                cluster.failover_now().expect("manual failover")
            };
            reports.push(report);
            cluster.shutdown();
            let _ = std::fs::remove_dir_all(&base);
        }
        let phase = |us: fn(&FailoverReport) -> u64| quantiles(reports.iter().map(us).collect());
        cells.push(FailoverMttrCell {
            scenario,
            iterations: ITERS,
            detect_us: phase(|r| r.detect_us),
            promote_us: phase(|r| r.promote_us),
            repoint_us: phase(|r| r.repoint_us),
            mttr_us: phase(|r| r.mttr_us),
        });
    }
    FailoverMttrProbe {
        replicas: 2,
        baseline_updates: N,
        cells,
    }
}

impl ShardScalingProbe {
    /// `cell`'s throughput relative to the one-shard cell; 0 when that
    /// cell is missing or measured nothing.
    fn speedup(&self, cell: &ShardScalingCell) -> f64 {
        let one = self
            .cells
            .iter()
            .find(|c| c.shards == 1)
            .map_or(0.0, ShardScalingCell::updates_per_sec);
        if one > 0.0 {
            cell.updates_per_sec() / one
        } else {
            0.0
        }
    }
}

fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

fn render_shard_scaling(probe: &ShardScalingProbe) -> String {
    let mut scaling = TextTable::new([
        "shards",
        "submitters",
        "updates",
        "wall ms",
        "updates/s",
        "speedup",
        "ack p50 us",
        "ack p99 us",
    ]);
    for c in &probe.cells {
        scaling.row([
            c.shards.to_string(),
            c.submitters.to_string(),
            c.updates.to_string(),
            ms(c.wall),
            format!("{:.1}", c.updates_per_sec()),
            format!("{:.2}x", probe.speedup(c)),
            c.ack_p50_us.to_string(),
            c.ack_p99_us.to_string(),
        ]);
    }
    let mut cross = TextTable::new([
        "shards",
        "cross %",
        "queries",
        "cross submitted",
        "cross committed",
        "wall ms",
        "queries/s",
    ]);
    for c in &probe.cross_cells {
        cross.row([
            c.shards.to_string(),
            c.cross_percent.to_string(),
            c.queries.to_string(),
            c.cross_submitted.to_string(),
            c.cross_committed.to_string(),
            ms(c.wall),
            format!("{:.1}", per_sec(c.queries, c.wall)),
        ]);
    }
    format!(
        "== shard_scaling: durable-ack ingest, {} stocks, {} updates per submitter, 1 ms flush device ==\n{}\n\
         == cross_fraction: reads through the 2PL coordinator ==\n{}\n",
        probe.stocks,
        probe.updates_per_submitter,
        scaling.render(),
        cross.render(),
    )
}

fn render_failover_mttr(probe: &FailoverMttrProbe) -> String {
    let mut table = TextTable::new([
        "scenario",
        "iterations",
        "detect p50/p99 us",
        "promote p50/p99 us",
        "repoint p50/p99 us",
        "mttr p50/p99 us",
    ]);
    let pair = |(p50, p99): (u64, u64)| format!("{p50} / {p99}");
    for c in &probe.cells {
        table.row([
            c.scenario.to_string(),
            c.iterations.to_string(),
            pair(c.detect_us),
            pair(c.promote_us),
            pair(c.repoint_us),
            pair(c.mttr_us),
        ]);
    }
    format!(
        "== failover_mttr: {} replicas, {} replica-acked updates before the fault ==\n{}\n",
        probe.replicas,
        probe.baseline_updates,
        table.render(),
    )
}

/// The bar the 4-shard cell must clear against the simulated 1 ms
/// flush device.
const MIN_FOUR_SHARD_SPEEDUP: f64 = 3.0;

/// The probes' acceptance contract: every expected cell is present and
/// measured something, and four shards ingest at least
/// [`MIN_FOUR_SHARD_SPEEDUP`] times what one does. Returns every
/// violation, not just the first.
fn check_contract(shard: &ShardScalingProbe, fo: &FailoverMttrProbe) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for shards in [1, 2, 4, 8] {
        match shard.cells.iter().find(|c| c.shards == shards) {
            None => violations.push(format!("shard_scaling: no {shards}-shard cell")),
            Some(c) if c.updates_per_sec() <= 0.0 => violations.push(format!(
                "shard_scaling: {shards}-shard cell measured nothing"
            )),
            Some(c) if shards == 4 && shard.speedup(c) < MIN_FOUR_SHARD_SPEEDUP => {
                violations.push(format!(
                    "shard_scaling: 4-shard speedup {:.2}x below the {MIN_FOUR_SHARD_SPEEDUP}x bar",
                    shard.speedup(c)
                ))
            }
            Some(_) => {}
        }
    }
    for percent in [0, 5, 20] {
        match shard
            .cross_cells
            .iter()
            .find(|c| c.cross_percent == percent)
        {
            None => violations.push(format!("cross_fraction: no {percent}% cell")),
            Some(c) if c.queries == 0 => {
                violations.push(format!("cross_fraction: {percent}% cell ran no queries"))
            }
            Some(c) if percent > 0 && c.cross_committed == 0 => violations.push(format!(
                "cross_fraction: {percent}% cell committed no cross-shard transactions"
            )),
            Some(_) => {}
        }
    }
    for scenario in ["kill", "partition", "zombie_manual"] {
        match fo.cells.iter().find(|c| c.scenario == scenario) {
            None => violations.push(format!("failover_mttr: no {scenario} cell")),
            Some(c) if c.mttr_us.0 == 0 => {
                violations.push(format!("failover_mttr: {scenario} recorded no MTTR"))
            }
            Some(_) => {}
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe result that meets the contract: `rate(k) = k × 1000/s`.
    fn passing() -> (ShardScalingProbe, FailoverMttrProbe) {
        let cells = [1u32, 2, 4, 8]
            .into_iter()
            .map(|shards| ShardScalingCell {
                shards,
                submitters: shards,
                updates: 250 * shards as u64,
                wall: Duration::from_millis(250),
                ack_p50_us: 1_100,
                ack_p99_us: 1_900,
            })
            .collect();
        let cross_cells = [0u64, 5, 20]
            .into_iter()
            .map(|cross_percent| CrossFractionCell {
                shards: 4,
                cross_percent,
                queries: 1_000,
                cross_submitted: 10 * cross_percent,
                cross_committed: 10 * cross_percent,
                wall: Duration::from_millis(40),
            })
            .collect();
        let fo_cells = ["kill", "partition", "zombie_manual"]
            .into_iter()
            .map(|scenario| FailoverMttrCell {
                scenario,
                iterations: 5,
                detect_us: (120_000, 130_000),
                promote_us: (9_000, 12_000),
                repoint_us: (3, 5),
                mttr_us: (129_003, 142_005),
            })
            .collect();
        (
            ShardScalingProbe {
                stocks: 256,
                updates_per_submitter: 250,
                cells,
                cross_cells,
            },
            FailoverMttrProbe {
                replicas: 2,
                baseline_updates: 128,
                cells: fo_cells,
            },
        )
    }

    fn violations(shard: &ShardScalingProbe, fo: &FailoverMttrProbe) -> Vec<String> {
        check_contract(shard, fo).expect_err("fixture violates the contract")
    }

    #[test]
    fn a_complete_probe_passes_and_renders_every_cell() {
        let (shard, fo) = passing();
        assert_eq!(check_contract(&shard, &fo), Ok(()));
        assert!((shard.speedup(&shard.cells[2]) - 4.0).abs() < 1e-9);
        let text = render_shard_scaling(&shard) + &render_failover_mttr(&fo);
        for needle in [
            "4.00x",
            "8.00x",
            "zombie_manual",
            "129003 / 142005",
            "25000.0",
        ] {
            assert!(text.contains(needle), "{needle} missing from:\n{text}");
        }
    }

    #[test]
    fn empty_cells_violate_every_section() {
        let (mut shard, mut fo) = passing();
        shard.cells.clear();
        shard.cross_cells.clear();
        fo.cells.clear();
        let v = violations(&shard, &fo);
        assert_eq!(v.len(), 4 + 3 + 3, "{v:?}");
    }

    #[test]
    fn a_missing_shard_count_is_named() {
        let (mut shard, fo) = passing();
        shard.cells.retain(|c| c.shards != 8);
        assert_eq!(violations(&shard, &fo), ["shard_scaling: no 8-shard cell"]);
        // Without the one-shard cell no speedup can be computed at all.
        let (mut shard, fo) = passing();
        shard.cells.retain(|c| c.shards != 1);
        let v = violations(&shard, &fo);
        assert!(v.iter().any(|m| m.contains("no 1-shard cell")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("0.00x below")), "{v:?}");
    }

    #[test]
    fn four_shard_speedup_below_the_bar_fails() {
        let (mut shard, fo) = passing();
        // 4 shards at 2.9× the one-shard rate: 2,900 updates in 1 s.
        shard.cells[2].updates = 2_900;
        shard.cells[2].wall = Duration::from_secs(1);
        let v = violations(&shard, &fo);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("2.90x"), "{v:?}");
        shard.cells[2].updates = 3_000;
        assert_eq!(check_contract(&shard, &fo), Ok(()));
    }

    #[test]
    fn unmeasured_cells_fail() {
        let (mut shard, mut fo) = passing();
        shard.cells[1].updates = 0;
        shard.cross_cells[1].cross_committed = 0;
        shard.cross_cells[2].queries = 0;
        fo.cells[0].mttr_us.0 = 0;
        let v = violations(&shard, &fo);
        assert_eq!(v.len(), 4, "{v:?}");
        // The 0 % cell legitimately commits no cross-shard transaction.
        let (shard, fo) = passing();
        assert_eq!(shard.cross_cells[0].cross_committed, 0);
        assert_eq!(check_contract(&shard, &fo), Ok(()));
    }
}
