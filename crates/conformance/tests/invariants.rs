//! The invariant suite over clean runs, generated contracts, and the
//! durable engine's log.
//!
//! The differential oracle proves sim and live *agree*; these tests
//! prove both agree with the *model*: conservation of admitted work,
//! ρ inside the feasible band, staleness accounting, profit functions
//! that never reward worse service, and a WAL whose LSNs never gap.

mod support;

use quts_conformance::{
    check_run, gen_trace, profit_monotone, wal_contiguous, Envelope, GenParams, Observation,
};
use quts_db::{QueryOp, StockId, Store, Trade};
use quts_engine::{DurabilityConfig, Engine, EngineConfig, FsyncPolicy, LivePolicy};
use quts_qc::QualityContract;
use quts_sim::SimTime;
use quts_workload::{QcPreset, QcShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;
use support::record_timing;

#[test]
fn clean_runs_satisfy_every_invariant() {
    let start = Instant::now();
    // Seed 9's long horizon crosses enough adaptation periods for a ρ
    // that overshoots Eq. 4's clamp to leave the band; the default
    // traces stay inside it under such a bug.
    let long = GenParams {
        queries: 60,
        updates: 60,
        horizon_s: 1.5,
        ..GenParams::default()
    };
    let short = GenParams::default();
    for (seed, params) in [(1u64, &short), (8, &short), (21, &short), (9, &long)] {
        let env = Envelope::new(seed);
        let trace = gen_trace(seed, params);
        let arrived = trace.updates.len() as u64;
        for policy in LivePolicy::ALL {
            let sim = env.run_sim(policy, &trace);
            let obs = Observation::from_sim(&sim, arrived);
            assert_eq!(
                check_run(&obs),
                Vec::<String>::new(),
                "sim {} seed {seed}",
                policy.label()
            );
            let live = env.run_live(policy, &trace);
            let obs = Observation::from_virtual(&live, arrived);
            assert_eq!(
                check_run(&obs),
                Vec::<String>::new(),
                "live {} seed {seed}",
                policy.label()
            );
        }
    }
    record_timing("clean_runs_satisfy_every_invariant", start.elapsed());
}

#[test]
fn generated_contracts_have_monotone_profit() {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0xC0_FF_EE);
    let horizon = SimTime::from_ms(600);
    let presets = [
        QcPreset::Balanced,
        QcPreset::Phases,
        QcPreset::Spectrum { k: 1 },
        QcPreset::Spectrum { k: 5 },
        QcPreset::Spectrum { k: 9 },
    ];
    for preset in presets {
        for shape in [QcShape::Step, QcShape::Linear] {
            for i in 0..40u64 {
                let arrival = SimTime::from_ms(i * 10);
                let qc = preset.draw(&mut rng, shape, arrival, horizon);
                profit_monotone(&qc)
                    .unwrap_or_else(|e| panic!("{preset:?}/{shape:?} draw {i}: {e}"));
            }
        }
    }
    // And the two canonical constructors at fixed parameters.
    profit_monotone(&QualityContract::step(40.0, 80.0, 20.0, 1)).unwrap();
    profit_monotone(&QualityContract::linear(40.0, 80.0, 20.0, 1)).unwrap();
    record_timing("generated_contracts_have_monotone_profit", start.elapsed());
}

/// Unique scratch directory, removed on drop (even on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("quts-conformance-inv-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn durable_engine_wal_stays_contiguous_and_recovers() {
    let start = Instant::now();
    let tmp = TempDir::new("wal");
    let cfg = EngineConfig::default()
        .with_durability(DurabilityConfig::new(tmp.path()).with_fsync(FsyncPolicy::Always));
    let engine = Engine::try_start(Store::with_synthetic_stocks(4), cfg).unwrap();
    let n = 32u32;
    for i in 0..n {
        engine
            .submit_update(Trade {
                stock: StockId(i % 4),
                price: 50.0 + f64::from(i),
                volume: 1,
                trade_time_ms: u64::from(i),
            })
            .unwrap();
    }
    // Wait for the backlog to drain, then read the log out from under
    // the running engine (every frame is fsynced before it is applied).
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while engine.stats().updates_applied + engine.stats().updates_invalidated < u64::from(n) {
        assert!(Instant::now() < deadline, "updates never drained");
        std::thread::yield_now();
    }

    // Every accepted update was logged before it was applied, with
    // gap-free LSNs from the first frame on.
    wal_contiguous(tmp.path(), 0).unwrap();
    let replay = quts_db::wal::replay_dir(tmp.path(), 0).unwrap();
    assert_eq!(replay.records.len(), n as usize, "one frame per update");
    assert_eq!(replay.truncated_bytes, 0, "no torn frames under Always");

    let stats = engine.shutdown();
    assert_eq!(
        stats.updates_applied + stats.updates_invalidated,
        u64::from(n)
    );
    // The clean shutdown checkpoints: whatever (possibly empty) log
    // remains must still be contiguous from the snapshot's LSN.
    wal_contiguous(tmp.path(), 0).unwrap();

    // Recovery smoke: the recovered engine serves the final prices.
    let engine = Engine::try_start(
        Store::with_synthetic_stocks(4),
        EngineConfig::default().with_durability(DurabilityConfig::new(tmp.path())),
    )
    .unwrap();
    let reply = engine
        .submit_query(
            QueryOp::Lookup(StockId((n - 1) % 4)),
            QualityContract::step(5.0, 1000.0, 5.0, 1),
        )
        .unwrap()
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap();
    let quts_engine::QueryReply { result, .. } = reply;
    match result {
        quts_db::QueryResult::Price(p) => assert_eq!(p, 50.0 + f64::from(n - 1)),
        other => panic!("expected a price, got {other:?}"),
    }
    engine.shutdown();
    record_timing(
        "durable_engine_wal_stays_contiguous_and_recovers",
        start.elapsed(),
    );
}

/// Every file in `dir`, by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A log missing LSN 4 between its segments [1..=3] and [5..=6] is not
/// contiguous, and checking so leaves every byte where it was: recovery
/// would cut the second segment, the check must not.
#[test]
fn a_mid_log_gap_fails_contiguity_and_is_left_as_it_was() {
    use quts_db::wal::{encode_trade, Wal};
    let tmp = TempDir::new("gap");
    for (first, n) in [(1u64, 3u32), (5, 2)] {
        let mut wal = Wal::create(tmp.path(), FsyncPolicy::Always, 1 << 20, first).unwrap();
        for i in 0..n {
            let trade = Trade {
                stock: StockId(i),
                price: 1.0,
                volume: 1,
                trade_time_ms: 0,
            };
            wal.append(&encode_trade(&trade)).unwrap();
        }
    }
    let before = dir_bytes(tmp.path());
    assert_eq!(before.len(), 2, "two segments");
    let err = wal_contiguous(tmp.path(), 0).unwrap_err();
    assert!(err.contains("breaks"), "{err}");
    assert_eq!(dir_bytes(tmp.path()), before);
    // A torn tail in the last segment is no gap.
    let last = tmp.path().join(&before[1].0);
    std::fs::write(&last, &before[1].1[..before[1].1.len() - 3]).unwrap();
    std::fs::remove_file(tmp.path().join(&before[0].0)).unwrap();
    wal_contiguous(tmp.path(), 4).unwrap();
}
