//! The invariant suite over clean runs, generated contracts, and the
//! durable engine's log.
//!
//! The differential oracle proves sim and live *agree*; these tests
//! prove both agree with the *model*: conservation of admitted work,
//! ρ inside the feasible band, staleness accounting, profit functions
//! that never reward worse service, and a WAL whose LSNs never gap.

mod support;

use quts_conformance::{
    check_run, gen_trace, profit_monotone, wal_contiguous, Envelope, GenParams, Observation, Policy,
};
use quts_db::{QueryOp, StockId, Store, Trade};
use quts_engine::{DurabilityConfig, Engine, EngineConfig, FsyncPolicy};
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
    for seed in [1u64, 8, 21] {
        let env = Envelope::new(seed);
        let trace = gen_trace(seed, &GenParams::default());
        let arrived = trace.updates.len() as u64;
        for policy in Policy::ALL {
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
