//! Differential conformance: sim and live engine agree on every trace.
//!
//! Each test replays seeded traces through both engines under the
//! equivalence envelope and requires **zero divergences** — bit-equal
//! decisions, times, and profit (staleness reconciled by the documented
//! window; see `oracle` module docs).
//!
//! On failure the offending trace is shrunk and written as JSONL to
//! `$QUTS_CONF_ARTIFACTS` (or the target tmp dir) so it can be
//! committed under `regressions/`. Set `QUTS_CONF_TIMINGS=<path>` to
//! append per-test wall times (the CI job publishes them).

mod support;

use quts_conformance::{gen_trace, run_differential, Envelope, GenParams};
use quts_engine::LivePolicy;
use quts_sched::QueryOrder;
use std::time::Instant;
use support::{artifact_dir, record_timing, shrink_and_save};

/// Seeds the CI matrix runs; ≥ 8 per the acceptance criteria.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 0x5157_5453];

fn check_seed_policy(seed: u64, policy: LivePolicy, params: &GenParams) {
    check_envelope(&Envelope::new(seed), policy, params);
}

/// Runs the trace of the envelope's seed under `env` and `policy`.
fn check_envelope(env: &Envelope, policy: LivePolicy, params: &GenParams) {
    let seed = env.quts.seed;
    let trace = gen_trace(seed, params);
    let report = run_differential(env, policy, &trace);
    if !report.is_clean() {
        let path = shrink_and_save(env, policy, &trace, "differential");
        panic!(
            "divergence under {} (seed {seed}, {:?}):\n{}shrunk repro: {}",
            policy.label(),
            env.quts,
            report.render(),
            path.display()
        );
    }
}

#[test]
fn fifo_conforms_across_seeds() {
    let start = Instant::now();
    for seed in SEEDS {
        check_seed_policy(seed, LivePolicy::Fifo, &GenParams::default());
    }
    record_timing("fifo_conforms_across_seeds", start.elapsed());
}

#[test]
fn update_high_conforms_across_seeds() {
    let start = Instant::now();
    for seed in SEEDS {
        check_seed_policy(seed, LivePolicy::UpdateHigh, &GenParams::default());
    }
    record_timing("update_high_conforms_across_seeds", start.elapsed());
}

#[test]
fn query_high_conforms_across_seeds() {
    let start = Instant::now();
    for seed in SEEDS {
        check_seed_policy(seed, LivePolicy::QueryHigh, &GenParams::default());
    }
    record_timing("query_high_conforms_across_seeds", start.elapsed());
}

#[test]
fn quts_conforms_across_seeds() {
    let start = Instant::now();
    for seed in SEEDS {
        check_seed_policy(seed, LivePolicy::Quts, &GenParams::default());
    }
    record_timing("quts_conforms_across_seeds", start.elapsed());
}

/// Every field of `QutsConfig` reaches the live driver as it reaches
/// the simulator: a frozen ρ and each non-default low-level query order
/// (a live engine that ignored `adaptive` or `query_order` would run
/// adaptive VRD here and diverge).
#[test]
fn every_quts_config_reaches_both_drivers() {
    let start = Instant::now();
    for seed in [1, 2, 3] {
        let base = Envelope::new(seed);
        for quts in [
            base.quts.with_fixed_rho(0.6),
            base.quts.with_query_order(QueryOrder::Fifo),
            base.quts.with_query_order(QueryOrder::Edf),
            base.quts.with_query_order(QueryOrder::ProfitDensity),
        ] {
            let env = Envelope {
                quts,
                ..base.clone()
            };
            check_envelope(&env, LivePolicy::Quts, &GenParams::default());
        }
    }
    record_timing("every_quts_config_reaches_both_drivers", start.elapsed());
}

#[test]
fn quts_conforms_under_overload_and_idle_gaps() {
    let start = Instant::now();
    // Overload: more offered work than the horizon can serve, so
    // expiry shedding and deep queues dominate.
    let overload = GenParams {
        queries: 90,
        updates: 120,
        horizon_s: 0.4,
        ..GenParams::default()
    };
    // Sparse: long idle gaps between arrivals, exercising the idle
    // clock-jump path and timer parking.
    let sparse = GenParams {
        queries: 8,
        updates: 10,
        horizon_s: 1.2,
        ..GenParams::default()
    };
    for (seed, params) in [
        (101u64, &overload),
        (102, &overload),
        (201, &sparse),
        (202, &sparse),
    ] {
        check_seed_policy(seed, LivePolicy::Quts, params);
    }
    record_timing(
        "quts_conforms_under_overload_and_idle_gaps",
        start.elapsed(),
    );
}

#[test]
fn single_stock_contention_conforms() {
    let start = Instant::now();
    // One stock: every update invalidates the previous pending one and
    // every query races the same register entry.
    let params = GenParams {
        num_stocks: 1,
        queries: 30,
        updates: 50,
        horizon_s: 0.5,
    };
    for policy in LivePolicy::ALL {
        check_seed_policy(77, policy, &params);
    }
    record_timing("single_stock_contention_conforms", start.elapsed());
}

#[test]
fn empty_and_one_sided_traces_conform() {
    let start = Instant::now();
    for policy in LivePolicy::ALL {
        let env = Envelope::new(5);
        // Queries only.
        let mut t = gen_trace(5, &GenParams::default());
        t.updates.clear();
        let r = run_differential(&env, policy, &t);
        assert!(
            r.is_clean(),
            "queries-only {}:\n{}",
            policy.label(),
            r.render()
        );
        // Updates only.
        let mut t = gen_trace(6, &GenParams::default());
        t.queries.clear();
        let r = run_differential(&env, policy, &t);
        assert!(
            r.is_clean(),
            "updates-only {}:\n{}",
            policy.label(),
            r.render()
        );
        // Empty.
        let t = quts_conformance::ConfTrace {
            seed: 0,
            num_stocks: 2,
            queries: vec![],
            updates: vec![],
        };
        let r = run_differential(&env, policy, &t);
        assert!(r.is_clean(), "empty {}:\n{}", policy.label(), r.render());
    }
    record_timing("empty_and_one_sided_traces_conform", start.elapsed());
}

#[test]
fn committed_regressions_stay_clean() {
    let start = Instant::now();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("regressions");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("regressions dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable regression");
        let trace = quts_conformance::ConfTrace::from_jsonl(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for policy in LivePolicy::ALL {
            let report = run_differential(&Envelope::new(trace.seed), policy, &trace);
            assert!(
                report.is_clean(),
                "{} regressed under {}:\n{}",
                path.display(),
                policy.label(),
                report.render()
            );
        }
        checked += 1;
    }
    assert!(
        checked > 0,
        "no regression traces found in {}",
        dir.display()
    );
    let _ = artifact_dir(); // ensure the artifact dir is creatable in CI
    record_timing("committed_regressions_stay_clean", start.elapsed());
}
