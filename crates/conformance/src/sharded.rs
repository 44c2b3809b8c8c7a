//! Sharded differential verification: is every shard of an `N`-shard
//! system the single engine the oracle already pins?
//!
//! Items are hash-partitioned and every shard owns a full QUTS scheduler
//! with a derived seed ([`quts_engine::shard_seed`]), so on single-item
//! traffic an `N`-shard system is `N` separate engines each fed its own
//! slice of the trace. This module checks the slices, two ways:
//!
//! 1. **Per-shard oracle** — [`partition_conf_trace`] splits a
//!    [`ConfTrace`] with the *same* hash the live router uses, and
//!    [`run_sharded_differential`] runs the full single-engine
//!    differential oracle ([`run_differential`]) on every slice under a
//!    per-shard [`Envelope`] — so each shard is held to the same
//!    sim-vs-live bit-equality standard as the unsharded engine.
//! 2. **Invariants** — [`shards_conserve`] (global counts equal the sum
//!    over the `N` independent runs, every query resolves in exactly one
//!    shard) and the engine-independent run invariants per shard.
//!
//! Nothing here starts a threaded `ShardedEngine`: its routing,
//! conservation, isolation and cross-shard 2PL are checked live by
//! `quts-engine`'s `shard.rs` tests and `tests/engine_shard_{txn,chaos}.rs`.

use crate::envelope::{Envelope, Policy};
use crate::invariant::{check_run, Observation};
use crate::oracle::{run_differential, DiffReport};
use crate::trace::{ConfQuery, ConfTrace, ConfUpdate};
use quts_db::StockId;
use quts_engine::{shard_seed, ShardMap, VirtualRunReport};

/// One shard's slice of a global conformance trace.
#[derive(Debug, Clone)]
pub(crate) struct ShardConfPart {
    /// The shard this slice belongs to.
    pub shard: u32,
    /// The shard's own replayable trace: stocks remapped to shard-local
    /// ids, `num_stocks` = the shard's member count, `seed` =
    /// [`shard_seed`]`(global_seed, shard)` — exactly what the live
    /// sharded engine hands that shard.
    pub trace: ConfTrace,
}

/// Partitions a conformance trace across `shards` with the same stable
/// hash ([`quts_engine::shard_of`] via [`ShardMap`]) the live engine
/// routes by. Relative arrival order is preserved within each stream;
/// stock ids are remapped to each shard's dense local ids.
///
/// # Panics
/// Panics if `shards` is zero or any event references a stock outside
/// `trace.num_stocks`.
pub(crate) fn partition_conf_trace(trace: &ConfTrace, shards: u32) -> Vec<ShardConfPart> {
    let map = ShardMap::new(trace.num_stocks, shards);
    let mut parts: Vec<ShardConfPart> = (0..shards)
        .map(|k| ShardConfPart {
            shard: k,
            trace: ConfTrace {
                seed: shard_seed(trace.seed, k),
                num_stocks: map.members(k).len() as u32,
                queries: Vec::new(),
                updates: Vec::new(),
            },
        })
        .collect();
    for q in &trace.queries {
        let k = map.shard_of(StockId(q.stock));
        parts[k as usize].trace.queries.push(ConfQuery {
            stock: map.to_local(StockId(q.stock)).0,
            ..q.clone()
        });
    }
    for u in &trace.updates {
        let k = map.shard_of(StockId(u.stock));
        parts[k as usize].trace.updates.push(ConfUpdate {
            stock: map.to_local(StockId(u.stock)).0,
            ..u.clone()
        });
    }
    parts
}

/// The verdict of one sharded differential run: `N` single-shard oracle
/// reports plus the cross-shard checks layered on top.
#[derive(Debug)]
pub struct ShardedDiffReport {
    /// Policy the trace ran under.
    pub policy: Policy,
    /// Shard count of the run.
    pub shards: u32,
    /// One full sim-vs-live differential report per *non-empty* shard
    /// (a shard that owns no stocks and received no events has nothing
    /// to diff).
    pub per_shard: Vec<DiffReport>,
    /// Cross-shard violations: conservation failures and per-shard
    /// invariant violations.
    pub cross: Vec<String>,
}

impl ShardedDiffReport {
    /// True when every per-shard oracle is clean and no cross-shard
    /// check fired.
    pub fn is_clean(&self) -> bool {
        self.cross.is_empty() && self.per_shard.iter().all(DiffReport::is_clean)
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "shards={} policy={} per_shard_reports={} cross_violations={}\n",
            self.shards,
            self.policy.label(),
            self.per_shard.len(),
            self.cross.len()
        );
        for (k, r) in self.per_shard.iter().enumerate() {
            if !r.is_clean() {
                out.push_str(&format!("--- shard report {k} ---\n{}", r.render()));
            }
        }
        for v in &self.cross {
            out.push_str("cross: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// The envelope shard `k` runs under: the global one with the seed the
/// live sharded engine derives for that shard.
fn shard_envelope(env: &Envelope, shard: u32) -> Envelope {
    Envelope {
        seed: shard_seed(env.seed, shard),
        ..env.clone()
    }
}

/// Runs the full sharded differential check for one trace: per-shard
/// sim-vs-live oracles, cross-shard conservation and per-shard run
/// invariants. See the module docs.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn run_sharded_differential(
    env: &Envelope,
    policy: Policy,
    trace: &ConfTrace,
    shards: u32,
) -> ShardedDiffReport {
    let mut per_shard = Vec::new();
    let mut cross = Vec::new();

    // N genuinely independent single-shard runs, each under its own
    // derived envelope — the oracle's model of the sharded system.
    let mut independent = Vec::new();
    for part in &partition_conf_trace(trace, shards) {
        if part.trace.num_stocks == 0 && part.trace.events() == 0 {
            continue; // owns nothing, got nothing: vacuous
        }
        let env_k = shard_envelope(env, part.shard);
        per_shard.push(run_differential(&env_k, policy, &part.trace));
        let live = env_k.run_live(policy, &part.trace);
        // Engine-independent run invariants, per shard.
        let obs = Observation::from_virtual(&live, part.trace.updates.len() as u64);
        for v in check_run(&obs) {
            cross.push(format!("shard {} invariant: {v}", part.shard));
        }
        independent.push(live);
    }
    cross.extend(shards_conserve(trace, &independent));

    ShardedDiffReport {
        policy,
        shards,
        per_shard,
        cross,
    }
}

/// Cross-shard conservation: summed over the independent per-shard
/// runs, the reports must account for exactly the global trace — every
/// query resolves in exactly one shard's counters, every update is
/// applied, invalidated or still pending somewhere. Returns
/// human-readable violations (empty when conservation holds).
pub(crate) fn shards_conserve(
    trace: &ConfTrace,
    shard_reports: &[VirtualRunReport],
) -> Vec<String> {
    let mut v = Vec::new();
    let sum = |f: &dyn Fn(&VirtualRunReport) -> u64| -> u64 { shard_reports.iter().map(f).sum() };
    let submitted = sum(&|r| r.stats.aggregates.submitted);
    let committed = sum(&|r| r.stats.aggregates.committed);
    let expired = sum(&|r| r.stats.shed_expired);
    if submitted != trace.queries.len() as u64 {
        v.push(format!(
            "query conservation: {} queries in trace, {submitted} submitted across shards",
            trace.queries.len()
        ));
    }
    if committed + expired != submitted {
        v.push(format!(
            "query resolution: {submitted} submitted != {committed} committed + {expired} expired"
        ));
    }
    let outcomes = sum(&|r| r.outcomes.len() as u64);
    if outcomes != trace.queries.len() as u64 {
        v.push(format!(
            "outcome streams: {outcomes} outcomes across shards for {} queries",
            trace.queries.len()
        ));
    }
    let applied = sum(&|r| r.stats.updates_applied);
    let invalidated = sum(&|r| r.stats.updates_invalidated);
    let pending = sum(&|r| r.pending_updates);
    if applied + invalidated + pending != trace.updates.len() as u64 {
        v.push(format!(
            "update conservation: {} updates in trace, {applied} applied + {invalidated} \
             invalidated + {pending} pending across shards",
            trace.updates.len()
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{gen_trace, GenParams};

    fn small_trace(seed: u64) -> ConfTrace {
        gen_trace(
            seed,
            &GenParams {
                num_stocks: 8,
                queries: 12,
                updates: 16,
                horizon_s: 0.3,
            },
        )
    }

    #[test]
    fn partition_covers_trace_and_remaps_locally() {
        let trace = small_trace(11);
        let shards = 3;
        let parts = partition_conf_trace(&trace, shards);
        assert_eq!(parts.len(), shards as usize);
        let q: usize = parts.iter().map(|p| p.trace.queries.len()).sum();
        let u: usize = parts.iter().map(|p| p.trace.updates.len()).sum();
        assert_eq!(q, trace.queries.len());
        assert_eq!(u, trace.updates.len());
        let map = ShardMap::new(trace.num_stocks, shards);
        for part in &parts {
            assert_eq!(part.trace.seed, shard_seed(trace.seed, part.shard));
            assert_eq!(
                part.trace.num_stocks as usize,
                map.members(part.shard).len()
            );
            for q in &part.trace.queries {
                assert!(q.stock < part.trace.num_stocks, "local ids are dense");
            }
            // Arrival order is preserved within the slice.
            for w in part.trace.queries.windows(2) {
                assert!(w[0].at_us <= w[1].at_us);
            }
            for w in part.trace.updates.windows(2) {
                assert!(w[0].at_us <= w[1].at_us);
            }
        }
    }

    #[test]
    fn one_shard_differential_matches_the_unsharded_oracle() {
        let trace = small_trace(21);
        // shard 0 of a 1-shard map gets the derived seed, so compare
        // against the plain oracle under that same derived envelope.
        let env = Envelope::new(21);
        let report = run_sharded_differential(&env, Policy::Quts, &trace, 1);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.per_shard.len(), 1);
    }

    #[test]
    fn sharded_differential_is_clean_across_counts() {
        let trace = small_trace(31);
        for shards in [2u32, 4] {
            let env = Envelope::new(31);
            let report = run_sharded_differential(&env, Policy::Quts, &trace, shards);
            assert!(report.is_clean(), "{}", report.render());
        }
    }

    #[test]
    fn conservation_flags_a_cooked_report() {
        let trace = small_trace(51);
        let env = Envelope::new(51);
        let mut reports: Vec<VirtualRunReport> = partition_conf_trace(&trace, 2)
            .iter()
            .map(|p| shard_envelope(&env, p.shard).run_live(Policy::Quts, &p.trace))
            .collect();
        assert!(shards_conserve(&trace, &reports).is_empty());
        // Drop an outcome and count a query twice: the shards no longer
        // add up to the trace.
        reports[0].outcomes.pop();
        reports[0].stats.aggregates.submitted += 1;
        assert!(!shards_conserve(&trace, &reports).is_empty());
    }
}
