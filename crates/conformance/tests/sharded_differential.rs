//! Sharded differential matrix: every shard of an N-shard system is the
//! single engine the oracle already pins.
//!
//! Every cell hash-partitions a seeded single-item trace, holds each
//! slice to the sim-vs-live oracle under that shard's derived seed, and
//! checks cross-shard conservation plus the per-shard run invariants —
//! **zero divergences** required. On failure the trace is shrunk
//! against the sharded checker and written to `$QUTS_CONF_ARTIFACTS`
//! (or the target tmp dir) for committing under `regressions/`.

mod support;

use quts_conformance::{
    gen_trace, run_sharded_differential, shrink_divergent, Envelope, GenParams, Policy,
};
use std::time::Instant;
use support::{artifact_dir, record_timing};

/// The matrix's seed axis (4 per the acceptance criteria).
const SEEDS: [u64; 4] = [3, 17, 29, 0x5157_5453];

/// The matrix's shard-count axis.
const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

/// Single-item traffic over enough stocks that 4 shards all get
/// members; gen_trace emits lookups only, so every query is
/// single-shard by construction.
fn matrix_params() -> GenParams {
    GenParams {
        num_stocks: 8,
        queries: 40,
        updates: 60,
        horizon_s: 0.6,
    }
}

/// Runs one matrix cell; on divergence, shrinks against the sharded
/// checker and saves the witness for the regressions dir.
fn check_cell(seed: u64, shards: u32, policy: Policy) {
    let env = Envelope::new(seed);
    let trace = gen_trace(seed, &matrix_params());
    let report = run_sharded_differential(&env, policy, &trace, shards);
    if !report.is_clean() {
        let shrunk = shrink_divergent(&trace, |t| {
            !run_sharded_differential(&env, policy, t, shards).is_clean()
        });
        let path = artifact_dir().join(format!(
            "sharded-{}-seed{seed}-s{shards}.jsonl",
            policy.label()
        ));
        std::fs::write(&path, shrunk.to_jsonl()).expect("artifact dir writable");
        panic!(
            "sharded divergence (seed {seed}, {shards} shards, {}):\n{}shrunk witness: {}",
            policy.label(),
            report.render(),
            path.display()
        );
    }
}

#[test]
fn sharded_matrix_quts_zero_divergences() {
    let start = Instant::now();
    for seed in SEEDS {
        for shards in SHARD_COUNTS {
            check_cell(seed, shards, Policy::Quts);
        }
    }
    record_timing("sharded_matrix_quts_zero_divergences", start.elapsed());
}

#[test]
fn sharded_matrix_fixed_policies_zero_divergences() {
    let start = Instant::now();
    // The fixed-priority policies exercise the same partition
    // plumbing without the ρ feedback loop; two seeds suffice per
    // policy since the shard map doesn't depend on the policy.
    for policy in [Policy::Fifo, Policy::UpdateHigh, Policy::QueryHigh] {
        for seed in [SEEDS[0], SEEDS[3]] {
            for shards in SHARD_COUNTS {
                check_cell(seed, shards, policy);
            }
        }
    }
    record_timing(
        "sharded_matrix_fixed_policies_zero_divergences",
        start.elapsed(),
    );
}

#[test]
fn committed_sharded_regressions_stay_clean() {
    let start = Instant::now();
    // Every committed regression trace must also stay clean under the
    // sharded checker at every shard count — a sharded engine may never
    // reintroduce a bug the single-engine oracle already pinned.
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
        for shards in SHARD_COUNTS {
            let report =
                run_sharded_differential(&Envelope::new(trace.seed), Policy::Quts, &trace, shards);
            assert!(
                report.is_clean(),
                "{} regressed at {shards} shards:\n{}",
                path.display(),
                report.render()
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "no regression traces in {}", dir.display());
    record_timing("committed_sharded_regressions_stay_clean", start.elapsed());
}
