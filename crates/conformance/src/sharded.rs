//! Sharded differential verification: is an `N`-shard run exactly `N`
//! independent single-shard systems?
//!
//! The sharded engine's core claim is *non-interference*: because items
//! are hash-partitioned and every shard owns a full QUTS scheduler with
//! a derived seed ([`quts_engine::shard_seed`]), a sharded run over
//! single-item traffic must be indistinguishable from `N` separate
//! engines each fed its own slice of the trace. This module makes that
//! claim mechanically checkable, three ways:
//!
//! 1. **Per-shard oracle** — [`partition_conf_trace`] splits a
//!    [`ConfTrace`] with the *same* hash the live router uses, and
//!    [`run_sharded_differential`] runs the full single-engine
//!    differential oracle ([`run_differential`]) on every slice under a
//!    per-shard [`Envelope`] — so each shard is held to the same
//!    sim-vs-live bit-equality standard as the unsharded engine.
//! 2. **Merge equality** — the same call replays the *global* trace
//!    through [`quts_engine::run_virtual_sharded`] and demands its
//!    merged outcome stream, stats and final prices byte-equal the `N`
//!    independent runs. This pins the routing/merge plumbing itself.
//! 3. **Invariants** — [`shards_conserve`] (global counts equal the sum
//!    over shards, every query resolves in exactly one shard) and
//!    [`shards_independent`] (perturbing one shard's slice of the trace
//!    leaves every other shard's outcome stream bit-identical) run on
//!    top, and are wired into every sharded test's shutdown path.

use crate::envelope::{Envelope, Policy};
use crate::invariant::{check_run, Observation};
use crate::oracle::{run_differential, DiffReport};
use crate::trace::{ConfQuery, ConfTrace, ConfUpdate};
use quts_db::StockId;
use quts_engine::{
    run_virtual_sharded, shard_seed, ShardMap, ShardedVirtualReport, VirtualOutcome,
    VirtualRunReport,
};

/// One shard's slice of a global conformance trace.
#[derive(Debug, Clone)]
pub struct ShardConfPart {
    /// The shard this slice belongs to.
    pub shard: u32,
    /// The shard's own replayable trace: stocks remapped to shard-local
    /// ids, `num_stocks` = the shard's member count, `seed` =
    /// [`shard_seed`]`(global_seed, shard)` — exactly what the live
    /// sharded engine hands that shard.
    pub trace: ConfTrace,
    /// Global index (into the full trace's query stream) of each entry
    /// in `trace.queries`.
    pub query_index: Vec<usize>,
    /// Global index of each entry in `trace.updates`.
    pub update_index: Vec<usize>,
}

/// Partitions a conformance trace across `shards` with the same stable
/// hash ([`quts_engine::shard_of`] via [`ShardMap`]) the live engine
/// routes by. Relative arrival order is preserved within each stream;
/// stock ids are remapped to each shard's dense local ids.
///
/// # Panics
/// Panics if `shards` is zero or any event references a stock outside
/// `trace.num_stocks`.
pub fn partition_conf_trace(trace: &ConfTrace, shards: u32) -> Vec<ShardConfPart> {
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
            query_index: Vec::new(),
            update_index: Vec::new(),
        })
        .collect();
    for (i, q) in trace.queries.iter().enumerate() {
        let k = map.shard_of(StockId(q.stock));
        let part = &mut parts[k as usize];
        part.trace.queries.push(ConfQuery {
            stock: map.to_local(StockId(q.stock)).0,
            ..q.clone()
        });
        part.query_index.push(i);
    }
    for (i, u) in trace.updates.iter().enumerate() {
        let k = map.shard_of(StockId(u.stock));
        let part = &mut parts[k as usize];
        part.trace.updates.push(ConfUpdate {
            stock: map.to_local(StockId(u.stock)).0,
            ..u.clone()
        });
        part.update_index.push(i);
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
    /// Cross-shard violations: merge/byte-equality failures,
    /// conservation failures, per-shard invariant violations.
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

/// A stable fingerprint of one query outcome: every float by its exact
/// bit pattern, so "byte-equal" means byte-equal.
fn outcome_key(o: &VirtualOutcome) -> String {
    match &o.reply {
        Ok(r) => format!(
            "#{} ok {:?} rt={:016x} st={:016x} qos={:016x} qod={:016x}",
            o.live_id,
            r.result,
            r.rt_ms.to_bits(),
            r.staleness.to_bits(),
            r.qos.to_bits(),
            r.qod.to_bits()
        ),
        Err(e) => format!("#{} err {:?}", o.live_id, e),
    }
}

/// Runs the full sharded differential check for one trace: per-shard
/// sim-vs-live oracles, merged-vs-independent byte equality, cross-shard
/// conservation and per-shard run invariants. See the module docs.
///
/// # Panics
/// Panics if `shards` is zero or any query in the trace is not
/// single-item (the matrix runs single-item traffic only).
pub fn run_sharded_differential(
    env: &Envelope,
    policy: Policy,
    trace: &ConfTrace,
    shards: u32,
) -> ShardedDiffReport {
    let map = ShardMap::new(trace.num_stocks, shards);
    let parts = partition_conf_trace(trace, shards);
    let mut per_shard = Vec::new();
    let mut cross = Vec::new();

    // N genuinely independent single-shard runs, each under its own
    // derived envelope — the oracle's model of the sharded system.
    let mut independent: Vec<Option<VirtualRunReport>> = Vec::with_capacity(shards as usize);
    for part in &parts {
        if part.trace.num_stocks == 0 && part.trace.events() == 0 {
            independent.push(None); // owns nothing, got nothing: vacuous
            continue;
        }
        let env_k = Envelope {
            seed: shard_seed(env.seed, part.shard),
            ..env.clone()
        };
        per_shard.push(run_differential(&env_k, policy, &part.trace));
        independent.push(Some(env_k.run_live(policy, &part.trace)));
    }

    // The merged sharded replay of the *global* trace.
    let (queries, updates) = trace.to_specs(env.query_cost);
    let merged = run_virtual_sharded(
        trace.num_stocks,
        shards,
        &queries,
        &updates,
        &env.engine_config(policy),
    );

    // Merge equality: outcome stream, shard attribution, final prices.
    if merged.outcomes.len() != trace.queries.len() {
        cross.push(format!(
            "merged outcome count {} != {} queries",
            merged.outcomes.len(),
            trace.queries.len()
        ));
    }
    for (k, part) in parts.iter().enumerate() {
        let Some(live) = &independent[k] else {
            continue;
        };
        for (j, &g) in part.query_index.iter().enumerate() {
            let (shard_tag, merged_outcome) = &merged.outcomes[g];
            if *shard_tag != k as u32 {
                cross.push(format!(
                    "query {g} attributed to shard {shard_tag}, hash says {k}"
                ));
                continue;
            }
            let (a, b) = (outcome_key(merged_outcome), outcome_key(&live.outcomes[j]));
            if a != b {
                cross.push(format!(
                    "query {g} (shard {k}): merged {a} != independent {b}"
                ));
            }
        }
        for (local, &global) in map.members(k as u32).iter().enumerate() {
            let (a, b) = (
                merged.final_prices[global.index()],
                live.final_prices[local],
            );
            if a.to_bits() != b.to_bits() {
                cross.push(format!(
                    "stock {} (shard {k}): merged final price {a} != independent {b}",
                    global.index()
                ));
            }
        }
    }

    // Cross-shard conservation over the merged run.
    cross.extend(shards_conserve(trace, &merged));

    // Engine-independent run invariants, per shard.
    for (k, live) in independent.iter().enumerate() {
        let Some(report) = live else { continue };
        let obs = Observation::from_virtual(report, parts[k].trace.updates.len() as u64);
        for v in check_run(&obs) {
            cross.push(format!("shard {k} invariant: {v}"));
        }
    }

    ShardedDiffReport {
        policy,
        shards,
        per_shard,
        cross,
    }
}

/// Cross-shard conservation: summed over shards, the merged run must
/// account for exactly the global trace — every query resolves in
/// exactly one shard's counters, every update is applied, invalidated or
/// still pending somewhere. Returns human-readable violations (empty
/// when conservation holds).
pub fn shards_conserve(trace: &ConfTrace, report: &ShardedVirtualReport) -> Vec<String> {
    let mut v = Vec::new();
    let sum =
        |f: &dyn Fn(&VirtualRunReport) -> u64| -> u64 { report.shard_reports.iter().map(f).sum() };
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
    if report.outcomes.len() != trace.queries.len() {
        v.push(format!(
            "outcome stream: {} merged outcomes for {} queries",
            report.outcomes.len(),
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

/// The `shards_independent` invariant: perturbing shard `perturb`'s
/// slice of the trace (nudging every one of its update prices and
/// appending one extra update to one of its stocks) must leave every
/// *other* shard's outcome stream, ρ-adaptation series and final prices
/// **bit-identical** — shards share nothing on single-item traffic.
///
/// Returns human-readable violations (empty when independence holds).
/// Vacuously empty when the perturbed shard owns no stocks.
pub fn shards_independent(
    env: &Envelope,
    policy: Policy,
    trace: &ConfTrace,
    shards: u32,
    perturb: u32,
) -> Vec<String> {
    let map = ShardMap::new(trace.num_stocks, shards);
    let Some(&victim) = map.members(perturb).first() else {
        return Vec::new(); // owns nothing: nothing to perturb
    };
    let cfg = env.engine_config(policy);
    let (queries, updates) = trace.to_specs(env.query_cost);
    let base = run_virtual_sharded(trace.num_stocks, shards, &queries, &updates, &cfg);

    let mut alt = trace.clone();
    for u in &mut alt.updates {
        if map.shard_of(StockId(u.stock)) == perturb {
            u.price += 1.0;
        }
    }
    // One extra arrival at the tail keeps both streams sorted and also
    // perturbs the shard's event *count*, not just its payloads.
    let tail = alt.updates.last().map(|u| u.at_us).unwrap_or(0);
    alt.updates.push(ConfUpdate {
        at_us: tail + 1_000,
        stock: victim.0,
        price: 123.0,
    });
    let (aq, au) = alt.to_specs(env.query_cost);
    let pert = run_virtual_sharded(trace.num_stocks, shards, &aq, &au, &cfg);

    let mut v = Vec::new();
    for k in 0..shards {
        if k == perturb {
            continue;
        }
        let stream = |r: &ShardedVirtualReport| -> Vec<String> {
            r.outcomes
                .iter()
                .filter(|(s, _)| *s == k)
                .map(|(_, o)| outcome_key(o))
                .collect()
        };
        let (a, b) = (stream(&base), stream(&pert));
        if a != b {
            v.push(format!(
                "shard {k}'s outcome stream changed when shard {perturb} was perturbed \
                 ({} vs {} outcomes{})",
                a.len(),
                b.len(),
                a.iter()
                    .zip(&b)
                    .find(|(x, y)| x != y)
                    .map(|(x, y)| format!("; first diff: {x} vs {y}"))
                    .unwrap_or_default()
            ));
        }
        let (ra, rb) = (
            &base.shard_reports[k as usize].stats,
            &pert.shard_reports[k as usize].stats,
        );
        if ra.adaptations != rb.adaptations
            || ra.rho.to_bits() != rb.rho.to_bits()
            || ra
                .rho_history
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
                != rb
                    .rho_history
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
        {
            v.push(format!(
                "shard {k}'s ρ series changed when shard {perturb} was perturbed \
                 (adaptations {} vs {}, ρ {} vs {})",
                ra.adaptations, rb.adaptations, ra.rho, rb.rho
            ));
        }
        for &global in map.members(k) {
            let (a, b) = (
                base.final_prices[global.index()],
                pert.final_prices[global.index()],
            );
            if a.to_bits() != b.to_bits() {
                v.push(format!(
                    "stock {} (shard {k}) final price changed ({a} vs {b}) when shard \
                     {perturb} was perturbed",
                    global.index()
                ));
            }
        }
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
    fn shards_are_independent_under_perturbation() {
        let trace = small_trace(41);
        let env = Envelope::new(41);
        for perturb in 0..2 {
            let v = shards_independent(&env, Policy::Quts, &trace, 2, perturb);
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn conservation_flags_a_cooked_report() {
        let trace = small_trace(51);
        let env = Envelope::new(51);
        let (q, u) = trace.to_specs(env.query_cost);
        let mut merged = run_virtual_sharded(
            trace.num_stocks,
            2,
            &q,
            &u,
            &env.engine_config(Policy::Quts),
        );
        assert!(shards_conserve(&trace, &merged).is_empty());
        // Drop a merged outcome: the stream no longer covers the trace.
        merged.outcomes.pop();
        merged.shard_reports[0].stats.aggregates.submitted += 1;
        assert!(!shards_conserve(&trace, &merged).is_empty());
    }
}
