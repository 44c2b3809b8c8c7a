//! The differential oracle: one trace, two engines, zero divergences.
//!
//! [`run_differential`] replays a [`ConfTrace`] through the simulator
//! and through the live engine's scheduler (in virtual time, via
//! [`quts_engine::run_virtual`]) under the shared
//! [`Envelope`](crate::Envelope), then diffs everything the paper's
//! semantics determine. Within the envelope the two engines are
//! *decision-equivalent*, so almost every tier is compared **exactly**
//! (bit-equal `f64`s, equal µs):
//!
//! | tier | comparison |
//! |------|------------|
//! | per-query outcome | commit vs expire, and the expire `dispatched` flag — exact |
//! | commit / expire times | µs — exact |
//! | response time | µs and the derived `rt_ms` — exact (bit-equal) |
//! | QoS profit | exact (bit-equal; a pure function of response time) |
//! | query dispatch times | µs, per query — exact |
//! | update dispatch / apply times | µs sequences — exact (ids differ by design, see below) |
//! | ρ-adaptation series | `(at_us, ρ_old, ρ_new, QOSmax, QODmax)` — exact up to the live end, **tail rule** below |
//! | atom-draw series | `(at_us, class, ρ)` — exact up to the live end, **tail rule** below |
//! | totals | committed, expired, applied, invalidated — exact; end time per the **tail rule** |
//! | final store | both sides must equal the trace-derived last price per stock |
//! | per-query staleness | **windowed** — the one reconciled tier, below |
//!
//! **The staleness window.** Both engines count `#uu` correctly with
//! respect to their own admission timeline, but the timelines differ
//! *during a query's execution window*: the simulator processes an
//! update arrival the instant it happens (even mid-query, so it is
//! counted by the commit-time staleness read), while the live engine
//! ingests arrivals only between transactions (the executing query
//! cannot observe them). For a query dispatched at `d` and committed at
//! `c` over stock `s`, with `W₍` = updates on `s` arriving in the open
//! interval `(d, c)` and `W₎` = in the closed `[d, c]`:
//!
//! ```text
//! live_staleness + |W₍|  ≤  sim_staleness  ≤  live_staleness + |W₎|
//! ```
//!
//! Anything outside that band is a real divergence. The window affects
//! *accounting only* — ρ adaptation sums contract maxima at admission
//! and no scheduling decision reads commit-time staleness — so the
//! tolerance cannot mask a scheduling bug (those surface in the exact
//! tiers). QoD profit is checked per side against its own staleness
//! (`qod = qc.profit_split(rt, own_staleness)`), exactly.
//!
//! **The tail rule (QUTS only).** The simulator parks one timer at the
//! next atom/adaptation boundary whenever a transaction is running or
//! queued, and never cancels it — whichever timer is still parked when
//! the last transaction resolves fires afterwards, with both queues
//! empty, settling boundaries that decide nothing. Every parked
//! boundary is `min(state_until, next_adapt)` computed at some clock
//! `t ≤ T_f` (the final resolution time) and the atom grid has spacing
//! τ, so the stale fire lands in `(T_f, T_f + τ]` and settles **at most
//! one atom and one adaptation**, stamped strictly after `T_f`. The
//! live driver stops at `T_f`. The oracle therefore compares both
//! boundary series bit-exactly up to the live end, requires the
//! sim-only tail to fit that bound, and requires
//! `live_end ≤ sim_end ≤ live_end + τ`. The fixed-priority policies
//! schedule no timers, so for them the end times must match exactly.
//!
//! Update **ids** are not compared: when a newer update invalidates a
//! queued one, the simulator re-enqueues under the new id while the
//! live engine swaps the payload under the old queue entry. Same
//! decisions, different labels — times and counts are compared instead.
//! For the same reason apply *delays* (stamped from ingest time on the
//! live side) are not compared, apply *times* are.

use crate::envelope::{Envelope, Policy};
use crate::trace::ConfTrace;
use quts_engine::QueryError;
use quts_metrics::{TraceClass, TraceEvent, TraceRecord};
use std::collections::HashMap;
use std::fmt;

/// What a divergence is about; ordered roughly by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// One side committed, the other expired (or the expire
    /// `dispatched` flags differ).
    Outcome,
    /// A query was dispatched at different times (or a different number
    /// of times).
    DispatchSeries,
    /// Commit or expire happened at different instants.
    CommitTime,
    /// Response times differ.
    ResponseTime,
    /// Commit-time staleness fell outside the reconciliation window.
    Staleness,
    /// Profit accounting differs (QoS bits, or QoD inconsistent with
    /// the side's own staleness).
    Profit,
    /// The ρ-adaptation series differ.
    AdaptSeries,
    /// The atom-draw series differ.
    AtomSeries,
    /// Update dispatch/apply time sequences or counts differ.
    Updates,
    /// Aggregate totals differ (committed, expired, end time, …).
    Totals,
    /// Final store state differs from the trace-derived ground truth.
    FinalState,
    /// The comparison itself could not be trusted (ring overflow,
    /// missing outcomes, engine restarts).
    Harness,
}

/// One observed difference between the two engines.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Category of the difference.
    pub kind: DivergenceKind,
    /// Human-readable specifics (ids, times, values).
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {}", self.kind, self.detail)
    }
}

/// Outcome of one differential replay.
#[derive(Debug)]
pub struct DiffReport {
    /// Policy the trace ran under.
    pub policy: Policy,
    /// Number of events in the trace.
    pub events: usize,
    /// Queries committed (sim side; equal to live when clean).
    pub committed: u64,
    /// Queries expired (sim side; equal to live when clean).
    pub expired: u64,
    /// Every difference found, in detection order.
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// `true` when the engines agreed on everything.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// A multi-line human-readable summary of the divergences.
    pub fn render(&self) -> String {
        let mut out = format!(
            "policy={} events={} committed={} expired={} divergences={}\n",
            self.policy.label(),
            self.events,
            self.committed,
            self.expired,
            self.divergences.len()
        );
        for d in &self.divergences {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

/// Per-query lifecycle facts extracted from one engine's decision ring.
#[derive(Debug, Clone, Default, PartialEq)]
struct QueryFact {
    dispatch_us: Vec<u64>,
    /// `(at_us, response_us, staleness)` when committed.
    commit: Option<(u64, u64, u64)>,
    /// `(at_us, dispatched)` when expired.
    expire: Option<(u64, bool)>,
}

/// Everything the oracle reads out of one engine's decision ring.
#[derive(Debug, Default)]
struct RingFacts {
    queries: Vec<QueryFact>,
    update_dispatch_us: Vec<u64>,
    update_apply_us: Vec<u64>,
    invalidations: u64,
    drops: u64,
    /// `(at_us, old_rho, new_rho, qos_max, qod_max)` per adaptation.
    adapts: Vec<(u64, u64, u64, u64, u64)>,
    /// `(at_us, class, rho_bits)` per atom draw.
    atoms: Vec<(u64, TraceClass, u64)>,
}

/// Folds a decision ring into [`RingFacts`], translating engine-local
/// query ids to trace indices through `to_index`.
fn extract(records: &[TraceRecord], n_queries: usize, to_index: &HashMap<u64, usize>) -> RingFacts {
    let mut f = RingFacts {
        queries: vec![QueryFact::default(); n_queries],
        ..RingFacts::default()
    };
    for r in records {
        match r.event {
            TraceEvent::Dispatch {
                class: TraceClass::Query,
                id,
            } => {
                if let Some(&k) = to_index.get(&id) {
                    f.queries[k].dispatch_us.push(r.at_us);
                }
            }
            TraceEvent::Dispatch {
                class: TraceClass::Update,
                ..
            } => f.update_dispatch_us.push(r.at_us),
            TraceEvent::Commit {
                id,
                response_us,
                staleness,
            } => {
                if let Some(&k) = to_index.get(&id) {
                    f.queries[k].commit = Some((r.at_us, response_us, staleness));
                }
            }
            TraceEvent::Expire { id, dispatched } => {
                if let Some(&k) = to_index.get(&id) {
                    f.queries[k].expire = Some((r.at_us, dispatched));
                }
            }
            TraceEvent::UpdateApply { .. } => f.update_apply_us.push(r.at_us),
            TraceEvent::UpdateInvalidate { .. } => f.invalidations += 1,
            TraceEvent::UpdateDrop { .. } => f.drops += 1,
            TraceEvent::Adapt {
                old_rho,
                new_rho,
                qos_max,
                qod_max,
            } => f.adapts.push((
                r.at_us,
                old_rho.to_bits(),
                new_rho.to_bits(),
                qos_max.to_bits(),
                qod_max.to_bits(),
            )),
            TraceEvent::AtomStart { class, rho, .. } => {
                f.atoms.push((r.at_us, class, rho.to_bits()))
            }
            // Request-tracing events (ingest / route / ship / apply /
            // commit-ack) carry no scheduling facts to compare — the
            // trace_causality invariant covers them instead.
            _ => {}
        }
    }
    f
}

/// Replays `trace` through both engines under `policy` and diffs them;
/// see the module docs for the comparison tiers.
pub fn run_differential(env: &Envelope, policy: Policy, trace: &ConfTrace) -> DiffReport {
    let sim = env.run_sim(policy, trace);
    let live = env.run_live(policy, trace);
    let n = trace.queries.len();
    let mut div: Vec<Divergence> = Vec::new();
    let mut push = |kind: DivergenceKind, detail: String| div.push(Divergence { kind, detail });

    // --- Harness sanity: both rings must be complete and both runs
    // unperturbed, or no comparison below can be trusted.
    if sim.trace_dropped > 0 {
        push(
            DivergenceKind::Harness,
            format!("sim ring dropped {} records", sim.trace_dropped),
        );
    }
    if live.stats.engine_restarts != 0 {
        push(
            DivergenceKind::Harness,
            format!("live engine restarted {}×", live.stats.engine_restarts),
        );
    }
    if sim.query_restarts != 0 || sim.update_restarts != 0 {
        push(
            DivergenceKind::Harness,
            "sim restarted transactions inside the non-preemptive envelope".into(),
        );
    }
    let sim_records = sim.trace.as_deref().unwrap_or(&[]);
    let live_records = live.trace.as_deref().unwrap_or(&[]);

    // The simulator ids queries by trace index; the live engine by its
    // merged arrival sequence, reported per query in trace order.
    let sim_ids: HashMap<u64, usize> = (0..n).map(|k| (k as u64, k)).collect();
    let live_ids: HashMap<u64, usize> = live
        .outcomes
        .iter()
        .enumerate()
        .map(|(k, o)| (o.live_id, k))
        .collect();
    if live.outcomes.len() != n {
        push(
            DivergenceKind::Harness,
            format!("live driver resolved {}/{} queries", live.outcomes.len(), n),
        );
    }
    let sf = extract(sim_records, n, &sim_ids);
    let lf = extract(live_records, n, &live_ids);
    let resolved = |f: &RingFacts| {
        f.queries
            .iter()
            .filter(|q| q.commit.is_some() || q.expire.is_some())
            .count()
    };
    if resolved(&sf) != n || resolved(&lf) != n {
        push(
            DivergenceKind::Harness,
            format!(
                "ring missing resolutions (sim {}/{n}, live {}/{n})",
                resolved(&sf),
                resolved(&lf)
            ),
        );
    }

    // --- Per-query lifecycle.
    for k in 0..n {
        let (s, l) = (&sf.queries[k], &lf.queries[k]);
        match (s.commit, l.commit, s.expire, l.expire) {
            (Some(_), Some(_), None, None) | (None, None, Some(_), Some(_)) => {}
            _ => {
                push(
                    DivergenceKind::Outcome,
                    format!(
                        "query {k}: sim {} vs live {}",
                        outcome_str(s),
                        outcome_str(l)
                    ),
                );
                continue;
            }
        }
        if s.dispatch_us != l.dispatch_us {
            push(
                DivergenceKind::DispatchSeries,
                format!(
                    "query {k}: dispatches sim {:?} vs live {:?}",
                    s.dispatch_us, l.dispatch_us
                ),
            );
        }
        if let (Some((sat, sresp, sst)), Some((lat, lresp, lst))) = (s.commit, l.commit) {
            if sat != lat {
                push(
                    DivergenceKind::CommitTime,
                    format!("query {k}: committed at {sat}µs (sim) vs {lat}µs (live)"),
                );
            }
            if sresp != lresp {
                push(
                    DivergenceKind::ResponseTime,
                    format!("query {k}: response {sresp}µs (sim) vs {lresp}µs (live)"),
                );
            }
            // The staleness window (module docs): arrivals on the
            // query's stock during its execution window are visible to
            // the sim's commit-time read but not to the live engine's.
            let stock = trace.queries[k].stock;
            let d = *s.dispatch_us.last().unwrap_or(&sat);
            let window = |lo_incl: bool| {
                trace
                    .updates
                    .iter()
                    .filter(|u| u.stock == stock)
                    .filter(|u| {
                        if lo_incl {
                            u.at_us >= d && u.at_us <= sat
                        } else {
                            u.at_us > d && u.at_us < sat
                        }
                    })
                    .count() as u64
            };
            let (lo, hi) = (lst + window(false), lst + window(true));
            if !(lo..=hi).contains(&sst) {
                push(
                    DivergenceKind::Staleness,
                    format!(
                        "query {k}: sim staleness {sst} outside window [{lo}, {hi}] \
                         (live {lst}, dispatch {d}µs, commit {sat}µs)"
                    ),
                );
            }
        }
        if let (Some((sat, sd)), Some((lat, ld))) = (s.expire, l.expire) {
            if sat != lat {
                push(
                    DivergenceKind::CommitTime,
                    format!("query {k}: expired at {sat}µs (sim) vs {lat}µs (live)"),
                );
            }
            if sd != ld {
                push(
                    DivergenceKind::Outcome,
                    format!("query {k}: expire dispatched={sd} (sim) vs {ld} (live)"),
                );
            }
        }
    }

    // --- Per-query profit accounting: QoS is a pure function of
    // response time, so it must be bit-equal; QoD must match each
    // side's own staleness through the contract, exactly.
    let outcomes = sim.outcomes.as_deref().unwrap_or(&[]);
    let (queries, _) = trace.to_specs(env.query_cost);
    for o in outcomes {
        let k = o.id.index();
        let qc = &queries[k].qc;
        let (eqos, eqod) = qc.profit_split(o.rt_ms, o.staleness);
        if !o.expired && (o.qos.to_bits() != eqos.to_bits() || o.qod.to_bits() != eqod.to_bits()) {
            push(
                DivergenceKind::Profit,
                format!(
                    "query {k}: sim profit ({}, {}) inconsistent with own contract ({eqos}, {eqod})",
                    o.qos, o.qod
                ),
            );
        }
        match live.outcomes.get(k).map(|v| &v.reply) {
            Some(Ok(r)) => {
                if o.expired {
                    continue; // outcome tier already flagged it
                }
                if r.rt_ms.to_bits() != o.rt_ms.to_bits() {
                    push(
                        DivergenceKind::ResponseTime,
                        format!("query {k}: rt_ms {} (sim) vs {} (live)", o.rt_ms, r.rt_ms),
                    );
                }
                if r.qos.to_bits() != o.qos.to_bits() {
                    push(
                        DivergenceKind::Profit,
                        format!("query {k}: qos {} (sim) vs {} (live)", o.qos, r.qos),
                    );
                }
                let (_, lqod) = qc.profit_split(r.rt_ms, r.staleness);
                if r.qod.to_bits() != lqod.to_bits() {
                    push(
                        DivergenceKind::Profit,
                        format!(
                            "query {k}: live qod {} inconsistent with own staleness ({lqod})",
                            r.qod
                        ),
                    );
                }
            }
            Some(Err(QueryError::Expired)) if !o.expired => push(
                DivergenceKind::Outcome,
                format!("query {k}: sim committed, live expired"),
            ),
            Some(Err(QueryError::Expired)) => {}
            Some(Err(e)) => push(
                DivergenceKind::Harness,
                format!("query {k}: live reply error {e:?}"),
            ),
            None => {} // already flagged under Harness
        }
    }

    // --- Update stream: same dispatch/apply instants, same
    // invalidation and drop counts (ids are engine-local, see module
    // docs).
    if sf.update_dispatch_us != lf.update_dispatch_us {
        push(
            DivergenceKind::Updates,
            format!(
                "update dispatch times differ: sim {} events vs live {}, first mismatch at {:?}",
                sf.update_dispatch_us.len(),
                lf.update_dispatch_us.len(),
                first_mismatch(&sf.update_dispatch_us, &lf.update_dispatch_us),
            ),
        );
    }
    if sf.update_apply_us != lf.update_apply_us {
        push(
            DivergenceKind::Updates,
            format!(
                "update apply times differ: sim {} events vs live {}, first mismatch at {:?}",
                sf.update_apply_us.len(),
                lf.update_apply_us.len(),
                first_mismatch(&sf.update_apply_us, &lf.update_apply_us),
            ),
        );
    }
    if sf.invalidations != lf.invalidations || sf.drops != lf.drops {
        push(
            DivergenceKind::Updates,
            format!(
                "invalidations {}/{} drops {}/{} (sim/live)",
                sf.invalidations, lf.invalidations, sf.drops, lf.drops
            ),
        );
    }

    // --- QUTS decision series. The fixed-priority policies have no
    // atoms and no ρ on either side, so the series are compared only
    // where the policy defines them.
    //
    // Tail rule: the simulator parks a timer whenever work is
    // outstanding, and the timer still parked at the final resolution
    // fires afterwards, settling boundaries the live driver (which
    // stops at the final resolution) never reaches. Every parked
    // boundary is at most one atom length past the clock it was
    // computed at, so the sim-only tail is bounded: at most one atom
    // and one adaptation, both stamped strictly after the live end and
    // no more than τ past it. Everything up to the live end must be
    // bit-equal; a longer or later tail is a real divergence.
    if policy == Policy::Quts {
        let cut = live.end_us;
        let tau_us = env.tau.as_micros();
        let (sim_adapts, adapt_tail) = split_at_us(&sf.adapts, |a| a.0, cut);
        if sim_adapts != lf.adapts.as_slice() {
            push(
                DivergenceKind::AdaptSeries,
                format!(
                    "adaptation series differ: sim {:?} vs live {:?}",
                    render_adapts(sim_adapts),
                    render_adapts(&lf.adapts)
                ),
            );
        }
        if adapt_tail.len() > 1 || adapt_tail.iter().any(|a| a.0 > cut + tau_us) {
            push(
                DivergenceKind::AdaptSeries,
                format!(
                    "sim trailing adaptations exceed the parked-timer bound: {:?} (live end {cut}µs)",
                    render_adapts(adapt_tail)
                ),
            );
        }
        let (sim_atoms, atom_tail) = split_at_us(&sf.atoms, |a| a.0, cut);
        if sim_atoms != lf.atoms.as_slice() {
            push(
                DivergenceKind::AtomSeries,
                format!(
                    "atom series differ ({} vs {} draws), first mismatch: {:?}",
                    sim_atoms.len(),
                    lf.atoms.len(),
                    sim_atoms
                        .iter()
                        .zip(&lf.atoms)
                        .find(|(a, b)| a != b)
                        .map(|(a, b)| (*a, *b)),
                ),
            );
        }
        if atom_tail.len() > 1 || atom_tail.iter().any(|a| a.0 > cut + tau_us) {
            push(
                DivergenceKind::AtomSeries,
                format!(
                    "sim trailing atoms exceed the parked-timer bound: {atom_tail:?} (live end {cut}µs)"
                ),
            );
        }
    }

    // --- Totals and final state.
    let live_committed = live.stats.aggregates.committed;
    let live_expired = live.stats.shed_expired;
    if sim.committed != live_committed || sim.expired != live_expired {
        push(
            DivergenceKind::Totals,
            format!(
                "committed {}/{} expired {}/{} (sim/live)",
                sim.committed, live_committed, sim.expired, live_expired
            ),
        );
    }
    if sim.updates_applied != live.stats.updates_applied
        || sim.updates_invalidated != live.stats.updates_invalidated
    {
        push(
            DivergenceKind::Totals,
            format!(
                "updates applied {}/{} invalidated {}/{} (sim/live)",
                sim.updates_applied,
                live.stats.updates_applied,
                sim.updates_invalidated,
                live.stats.updates_invalidated
            ),
        );
    }
    // End of run. The live driver stops at the final resolution; under
    // QUTS the sim's clock advances once more to the parked timer,
    // which is never more than τ later (tail rule above). The
    // fixed-priority policies schedule no timers, so their ends match
    // exactly.
    let sim_end = sim.end_time.as_micros();
    let tail_allow = if policy == Policy::Quts {
        env.tau.as_micros()
    } else {
        0
    };
    if sim_end < live.end_us || sim_end > live.end_us + tail_allow {
        push(
            DivergenceKind::Totals,
            format!(
                "end time {sim_end}µs (sim) vs {}µs (live, +{tail_allow}µs tail allowed)",
                live.end_us
            ),
        );
    }
    if live.total_unapplied != 0 || live.pending_updates != 0 {
        push(
            DivergenceKind::Totals,
            format!(
                "live run did not drain: {} unapplied over {} stocks",
                live.total_unapplied, live.pending_updates
            ),
        );
    }
    // The simulator asserts its own store against the update stream
    // internally; the live side is held to the same trace-derived
    // ground truth here.
    let expected = trace.expected_final_prices(100.0);
    if live.final_prices != expected {
        push(
            DivergenceKind::FinalState,
            format!(
                "live final prices {:?} != trace-derived {:?}",
                live.final_prices, expected
            ),
        );
    }

    DiffReport {
        policy,
        events: trace.events(),
        committed: sim.committed,
        expired: sim.expired,
        divergences: div,
    }
}

fn outcome_str(f: &QueryFact) -> String {
    match (f.commit, f.expire) {
        (Some((at, ..)), None) => format!("commit@{at}µs"),
        (None, Some((at, d))) => format!("expire@{at}µs(dispatched={d})"),
        (None, None) => "unresolved".into(),
        (Some(_), Some(_)) => "both-commit-and-expire".into(),
    }
}

/// Splits a time-ordered series at `cut` µs: entries stamped `≤ cut`
/// and the (sim-only) trailing remainder.
fn split_at_us<T>(series: &[T], at: impl Fn(&T) -> u64, cut: u64) -> (&[T], &[T]) {
    let n = series.partition_point(|e| at(e) <= cut);
    series.split_at(n)
}

fn first_mismatch(a: &[u64], b: &[u64]) -> Option<(usize, Option<u64>, Option<u64>)> {
    let len = a.len().max(b.len());
    (0..len).find_map(|i| {
        let (x, y) = (a.get(i).copied(), b.get(i).copied());
        (x != y).then_some((i, x, y))
    })
}

fn render_adapts(adapts: &[(u64, u64, u64, u64, u64)]) -> Vec<(u64, f64, f64)> {
    adapts
        .iter()
        .map(|&(at, old, new, ..)| (at, f64::from_bits(old), f64::from_bits(new)))
        .collect()
}
