//! Engine-independent invariants.
//!
//! The differential oracle only says the two engines *agree*; the
//! invariants say they agree on something *sane*. Each invariant checks
//! an [`Observation`] — a normalised view of one run that both engines
//! (and the chaos tests' mid-crash stats) can produce — so the same
//! suite runs against the simulator, the virtual-time driver, and a
//! real engine that just survived a fault plan.
//!
//! The suite:
//!
//! - **ρ band** — every observed ρ lies in the feasible `[0.5, 1]` band
//!   of Eq. 4 (the mutation self-test escapes it within two
//!   adaptations).
//! - **Conservation (queries)** — admitted = committed + expired +
//!   shed-on-restart + still-pending. Nothing vanishes, not even across
//!   a panic.
//! - **Conservation (updates)** — arrived = applied + invalidated +
//!   overload-dropped + shed-on-restart + still-pending queue entries.
//! - **Staleness accounting** — `Σ#uu` is zero iff no update is
//!   pending, and at least the number of stocks with one.
//! - **Profit monotonicity** ([`profit_monotone`]) — a contract's QoS
//!   is non-increasing in response time, QoD non-increasing in `#uu`,
//!   both within `[0, max]`, and zero profit past the lifetime.
//! - **WAL contiguity** ([`wal_contiguous`]) — after any crash or
//!   recovery the surviving log reads as one gap-free LSN sequence,
//!   broken at most in its last segment; checking it changes nothing.
//! - **Replica accounting** ([`replica_consistent`]) — a replica's
//!   watermarks are ordered (`durable ≤ applied`) and, because it
//!   applies synchronously, it never owes staleness (`Σ#uu = 0`).
//! - **Routing QoD** ([`router_respects_qod`]) — the read router never
//!   dispatched a replica read whose staleness bound broke the
//!   contract's `qodmax` (the audit counter stays zero).

use quts_engine::{LiveStats, ReplicaStats, RouterStats, TraceRecord, VirtualRunReport};
use quts_qc::QualityContract;
use quts_sim::RunReport;
use std::collections::HashMap;
use std::path::Path;

/// A normalised view of one run, checkable by every [`Invariant`].
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Short provenance label used in failure messages.
    pub source: &'static str,
    /// Every ρ value observed (history plus final).
    pub rho_values: Vec<f64>,
    /// Queries admitted.
    pub submitted: u64,
    /// Queries committed.
    pub committed: u64,
    /// Queries expired/shed with zero profit.
    pub expired: u64,
    /// Queries shed because a crashed incarnation dropped them.
    pub shed_on_restart: u64,
    /// Queries admitted but not yet resolved.
    pub pending_queries: u64,
    /// Updates that arrived (`None` when the source cannot know).
    pub updates_arrived: Option<u64>,
    /// Updates applied to the store.
    pub updates_applied: u64,
    /// Updates invalidated by a newer same-item arrival.
    pub updates_invalidated: u64,
    /// Updates dropped by overload shedding.
    pub updates_dropped: u64,
    /// Updates shed across a non-durable restart.
    pub updates_shed_on_restart: u64,
    /// Distinct pending updates at observation time.
    pub pending_updates: u64,
    /// `Σ#uu` at observation time (`None` when the source cannot know).
    pub total_unapplied: Option<u64>,
}

impl Observation {
    /// From the live engine's statistics (works mid-run and
    /// post-shutdown, with or without faults).
    pub fn from_live_stats(stats: &LiveStats, updates_arrived: Option<u64>) -> Self {
        let mut rho_values = stats.rho_history.clone();
        rho_values.push(stats.rho);
        Observation {
            source: "live",
            rho_values,
            submitted: stats.aggregates.submitted,
            committed: stats.aggregates.committed,
            expired: stats.shed_expired,
            shed_on_restart: stats.shed_on_restart_queries,
            pending_queries: stats.pending_queries,
            updates_arrived,
            updates_applied: stats.updates_applied,
            updates_invalidated: stats.updates_invalidated,
            updates_dropped: stats.updates_dropped_overload,
            updates_shed_on_restart: stats.shed_on_restart_updates,
            // Updates parked in the group-commit buffer are arrived but
            // not yet applied/invalidated/dropped/shed: pending, just
            // not yet in the register table.
            pending_updates: stats.pending_updates + stats.group_buffered,
            total_unapplied: None,
        }
    }

    /// From a virtual-time run of the live engine (a drained run, so
    /// the tracker totals are known too).
    pub fn from_virtual(report: &VirtualRunReport, updates_arrived: u64) -> Self {
        let mut o = Self::from_live_stats(&report.stats, Some(updates_arrived));
        o.source = "virtual";
        o.total_unapplied = Some(report.total_unapplied);
        o.pending_updates = report.pending_updates;
        o
    }

    /// From a simulator run report.
    pub fn from_sim(report: &RunReport, updates_arrived: u64) -> Self {
        // Fixed-priority policies never adapt; an empty history is fine.
        let rho_values: Vec<f64> = report.rho_history.iter().map(|&(_, r)| r).collect();
        Observation {
            source: "sim",
            rho_values,
            submitted: report.aggregates.submitted,
            committed: report.committed,
            expired: report.expired,
            shed_on_restart: 0,
            pending_queries: report
                .aggregates
                .submitted
                .saturating_sub(report.committed + report.expired),
            updates_arrived: Some(updates_arrived),
            updates_applied: report.updates_applied,
            updates_invalidated: report.updates_invalidated,
            updates_dropped: 0,
            updates_shed_on_restart: 0,
            pending_updates: updates_arrived
                .saturating_sub(report.updates_applied + report.updates_invalidated),
            total_unapplied: None,
        }
    }
}

/// One checkable property of a run.
pub trait Invariant {
    /// Stable name used in failure messages and timing reports.
    fn name(&self) -> &'static str;
    /// `Err(description)` when the observation violates the property.
    fn check(&self, obs: &Observation) -> Result<(), String>;
}

/// Every ρ ever observed lies in the feasible band `[0.5, 1]` (Eq. 4).
pub struct RhoBand;

impl Invariant for RhoBand {
    fn name(&self) -> &'static str {
        "rho-band"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        for (i, &rho) in obs.rho_values.iter().enumerate() {
            if !(0.5..=1.0).contains(&rho) {
                return Err(format!("{}: rho[{i}] = {rho} outside [0.5, 1]", obs.source));
            }
        }
        Ok(())
    }
}

/// Admitted queries = committed + expired + shed-on-restart + pending.
pub struct QueryConservation;

impl Invariant for QueryConservation {
    fn name(&self) -> &'static str {
        "query-conservation"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        let accounted = obs.committed + obs.expired + obs.shed_on_restart + obs.pending_queries;
        if obs.submitted != accounted {
            return Err(format!(
                "{}: {} submitted but {} accounted ({} committed + {} expired + {} restart-shed + {} pending)",
                obs.source,
                obs.submitted,
                accounted,
                obs.committed,
                obs.expired,
                obs.shed_on_restart,
                obs.pending_queries
            ));
        }
        Ok(())
    }
}

/// Arrived updates = applied + invalidated + dropped + shed + pending.
pub struct UpdateConservation;

impl Invariant for UpdateConservation {
    fn name(&self) -> &'static str {
        "update-conservation"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        let Some(arrived) = obs.updates_arrived else {
            return Ok(()); // source can't know; nothing to check
        };
        let accounted = obs.updates_applied
            + obs.updates_invalidated
            + obs.updates_dropped
            + obs.updates_shed_on_restart
            + obs.pending_updates;
        if arrived != accounted {
            return Err(format!(
                "{}: {} arrived but {} accounted ({} applied + {} invalidated + {} dropped + {} restart-shed + {} pending)",
                obs.source,
                arrived,
                accounted,
                obs.updates_applied,
                obs.updates_invalidated,
                obs.updates_dropped,
                obs.updates_shed_on_restart,
                obs.pending_updates
            ));
        }
        Ok(())
    }
}

/// `Σ#uu` agrees with the pending-update queue: zero iff nothing
/// pending, and never below the number of stocks owing an update.
pub struct StalenessAccounting;

impl Invariant for StalenessAccounting {
    fn name(&self) -> &'static str {
        "staleness-accounting"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        let Some(total) = obs.total_unapplied else {
            return Ok(());
        };
        if obs.pending_updates == 0 && total != 0 {
            return Err(format!(
                "{}: nothing pending but Σ#uu = {total}",
                obs.source
            ));
        }
        if total < obs.pending_updates {
            return Err(format!(
                "{}: Σ#uu = {total} below the {} stocks owing an update",
                obs.source, obs.pending_updates
            ));
        }
        Ok(())
    }
}

/// The full suite, in reporting order.
pub fn all_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(RhoBand),
        Box::new(QueryConservation),
        Box::new(UpdateConservation),
        Box::new(StalenessAccounting),
    ]
}

/// Runs the whole suite against one observation; returns every
/// violation.
pub fn check_run(obs: &Observation) -> Vec<String> {
    all_invariants()
        .iter()
        .filter_map(|inv| {
            inv.check(obs)
                .err()
                .map(|msg| format!("{}: {}", inv.name(), msg))
        })
        .collect()
}

/// Checks a Quality Contract's profit shape on a sampling grid:
/// QoS non-increasing in response time, QoD non-increasing in `#uu`,
/// both within `[0, max]`, and total profit zero past the lifetime.
pub fn profit_monotone(qc: &QualityContract) -> Result<(), String> {
    let lifetime = qc.default_lifetime_ms();
    let rt_grid: Vec<f64> = (0..=60).map(|i| lifetime * 1.5 * i as f64 / 60.0).collect();
    let uu_grid: Vec<f64> = (0..=20).map(|i| i as f64).collect();
    let mut prev_qos = f64::INFINITY;
    for &rt in &rt_grid {
        let qos = qc.qos_profit(rt);
        if !(0.0..=qc.qosmax()).contains(&qos) {
            return Err(format!("qos({rt}) = {qos} outside [0, {}]", qc.qosmax()));
        }
        if qos > prev_qos + 1e-12 {
            return Err(format!(
                "qos increases at rt = {rt} ms ({prev_qos} -> {qos})"
            ));
        }
        prev_qos = qos;
    }
    let mut prev_qod = f64::INFINITY;
    for &uu in &uu_grid {
        let qod = qc.qod_profit(uu);
        if !(0.0..=qc.qodmax()).contains(&qod) {
            return Err(format!("qod({uu}) = {qod} outside [0, {}]", qc.qodmax()));
        }
        if qod > prev_qod + 1e-12 {
            return Err(format!("qod increases at #uu = {uu} ({prev_qod} -> {qod})"));
        }
        prev_qod = qod;
    }
    // Composition respects the lifetime: at or past it the contract
    // pays zero total profit regardless of what the raw curves say.
    for &rt in &[lifetime, lifetime * 1.25, lifetime * 4.0] {
        let (qos, qod) = qc.profit_split(rt, 0.0);
        if qos != 0.0 || qod != 0.0 {
            return Err(format!(
                "profit ({qos}, {qod}) at rt = {rt} ms, past lifetime {lifetime} ms"
            ));
        }
    }
    Ok(())
}

/// Walks the WAL under `dir` without changing it and checks LSN
/// contiguity: records strictly after `after_lsn` must form the
/// gap-free sequence `after_lsn + 1, after_lsn + 2, …`, and the log may
/// break only in a torn tail — inside its last segment, past the
/// segment's header or within a torn one. Any other break is where
/// recovery would delete a segment, or cut one with its header and
/// records whole.
pub fn wal_contiguous(dir: &Path, after_lsn: u64) -> Result<(), String> {
    let walk = quts_db::wal::walk(dir, after_lsn).map_err(|e| format!("wal walk failed: {e}"))?;
    if let Some((at, keep)) = walk.broken {
        let path = &walk.segments[at].1;
        let len = std::fs::metadata(path)
            .map_err(|e| format!("wal walk failed: {e}"))?
            .len();
        let last = at + 1 == walk.segments.len();
        if !(last && (keep > 0 || len < quts_db::wal::SEGMENT_MAGIC.len() as u64)) {
            return Err(format!(
                "the log breaks at byte {keep} of {}, short of a torn tail",
                path.display()
            ));
        }
    }
    for (i, frame) in walk.records.iter().enumerate() {
        let expect = after_lsn + 1 + i as u64;
        if frame.lsn != expect {
            return Err(format!(
                "LSN gap at record {i}: got {} expected {expect}",
                frame.lsn
            ));
        }
    }
    Ok(())
}

/// Replica-side accounting: `durable_lsn` never runs ahead of
/// `applied_lsn` (the sync-before-ack contract), and frame counters
/// cover the applied watermark when the replica bootstrapped from the
/// LSN-0 baseline.
pub fn replica_consistent(stats: &ReplicaStats) -> Result<(), String> {
    if stats.durable_lsn > stats.applied_lsn {
        return Err(format!(
            "replica {}: durable_lsn {} ahead of applied_lsn {}",
            stats.name, stats.durable_lsn, stats.applied_lsn
        ));
    }
    if stats.ready && stats.applied_lsn > 0 && stats.frames_applied == 0 && stats.bootstraps == 0 {
        return Err(format!(
            "replica {}: applied_lsn {} with no frames applied and no bootstrap",
            stats.name, stats.applied_lsn
        ));
    }
    Ok(())
}

/// The router's dispatch-time QoD audit: a replica read is only sent
/// when its staleness bound earns full QoD profit, so the violation
/// counter must be zero after any run.
pub fn router_respects_qod(stats: &RouterStats) -> Result<(), String> {
    if stats.qod_violations != 0 {
        return Err(format!(
            "router dispatched {} replica reads past their qodmax",
            stats.qod_violations
        ));
    }
    Ok(())
}

/// Span causality over a trace-record sequence: every non-root span's
/// parent must have appeared **earlier** in the sequence, within the
/// same trace id. For a cross-process chain, pass the merged record
/// sets with the upstream process first (primary before replica) — the
/// update's ingest span on the primary is the parent every downstream
/// `ship_frame` / `replica_apply` span names.
///
/// `dropped` is the ring's overwrite counter: once records have been
/// lost, a missing parent proves nothing, so the check passes
/// vacuously.
pub fn trace_causality(records: &[TraceRecord], dropped: u64) -> Result<(), String> {
    if dropped > 0 {
        return Ok(());
    }
    // First occurrence of each (trace_id, span); records are scanned in
    // sequence order, so presence in the map means "appeared earlier".
    let mut seen: HashMap<(u64, u32), usize> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        let Some(ctx) = r.event.ctx() else { continue };
        if ctx.parent != 0 && !seen.contains_key(&(ctx.trace_id, ctx.parent)) {
            return Err(format!(
                "record {i} ({}): span {} of trace {:#018x} parented on span {}, \
                 which never appeared before it",
                r.event.kind(),
                ctx.span,
                ctx.trace_id,
                ctx.parent
            ));
        }
        seen.entry((ctx.trace_id, ctx.span)).or_insert(i);
    }
    Ok(())
}

/// Term fencing's core safety claim, checked over a promotions log of
/// `(term, promoted replica)` entries in the order the controller
/// performed them: terms must be strictly increasing — each term was
/// held by at most one primary, and no term was ever reused. A repeated
/// or regressing term would mean two nodes could both have said
/// "durable" for the same term, which is exactly the split-brain the
/// MANIFEST fence exists to rule out.
pub fn at_most_one_primary_per_term(promotions: &[(u64, String)]) -> Result<(), String> {
    for pair in promotions.windows(2) {
        let (prev_term, prev_name) = &pair[0];
        let (term, name) = &pair[1];
        if term <= prev_term {
            return Err(format!(
                "term {term} (promoted {name}) does not exceed prior term \
                 {prev_term} (promoted {prev_name}): two primaries per term"
            ));
        }
    }
    Ok(())
}

/// Zero-acked-loss across failover: every update a client was told is
/// durable (the highest durably-acked LSN before the primary was lost)
/// must still be inside the promoted primary's WAL. The promoted log
/// covering the acked floor is necessary; the chaos tests additionally
/// re-read the acked *values* through the new primary to prove the
/// payloads survived, not just the LSN range.
pub fn no_acked_loss_across_failover(
    acked_durable_lsn: u64,
    promoted_wal_last_lsn: u64,
) -> Result<(), String> {
    if promoted_wal_last_lsn < acked_durable_lsn {
        return Err(format!(
            "promoted primary's WAL ends at {promoted_wal_last_lsn} but LSN \
             {acked_durable_lsn} was acked durable: acked-durable loss"
        ));
    }
    Ok(())
}

/// [`wal_contiguous`] anchored at the snapshot `dir` stands on (LSN 0
/// when none decodes): the shape a replica or recovered primary
/// directory must have after snapshot GC pruned covered segments.
pub fn wal_contiguous_after_snapshot(dir: &Path) -> Result<(), String> {
    let base = quts_db::snapshot::current_bytes(dir).map_or(0, |(lsn, _)| lsn);
    wal_contiguous(dir, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> Observation {
        Observation {
            source: "test",
            rho_values: vec![0.75, 0.8, 1.0, 0.5],
            submitted: 10,
            committed: 7,
            expired: 2,
            shed_on_restart: 0,
            pending_queries: 1,
            updates_arrived: Some(20),
            updates_applied: 15,
            updates_invalidated: 3,
            updates_dropped: 0,
            updates_shed_on_restart: 0,
            pending_updates: 2,
            total_unapplied: Some(4),
        }
    }

    #[test]
    fn clean_observation_passes() {
        assert!(check_run(&clean()).is_empty());
    }

    #[test]
    fn each_invariant_catches_its_violation() {
        let mut o = clean();
        o.rho_values.push(1.02);
        assert!(check_run(&o).iter().any(|m| m.contains("rho-band")));

        let mut o = clean();
        o.committed -= 1;
        assert!(check_run(&o)
            .iter()
            .any(|m| m.contains("query-conservation")));

        let mut o = clean();
        o.updates_applied += 2;
        assert!(check_run(&o)
            .iter()
            .any(|m| m.contains("update-conservation")));

        let mut o = clean();
        o.pending_updates = 0;
        o.updates_applied += 2; // keep update conservation satisfied
        assert!(check_run(&o)
            .iter()
            .any(|m| m.contains("staleness-accounting")));
    }

    fn replica_stats() -> ReplicaStats {
        ReplicaStats {
            name: "r1".into(),
            ready: true,
            connected: true,
            applied_lsn: 40,
            durable_lsn: 40,
            frames_applied: 40,
            frames_duplicate: 2,
            gaps: 1,
            connections: 2,
            bootstraps: 1,
            snapshots_written: 1,
            term: 0,
            fenced: 0,
            heartbeat_age_us: 1_000,
        }
    }

    #[test]
    fn replica_consistent_accepts_a_healthy_replica() {
        replica_consistent(&replica_stats()).expect("healthy");
    }

    #[test]
    fn replica_consistent_catches_each_violation() {
        let mut s = replica_stats();
        s.durable_lsn = s.applied_lsn + 1;
        assert!(replica_consistent(&s).unwrap_err().contains("durable_lsn"));

        let mut s = replica_stats();
        s.frames_applied = 0;
        s.bootstraps = 0;
        assert!(replica_consistent(&s)
            .unwrap_err()
            .contains("no frames applied"));
    }

    #[test]
    fn router_qod_audit_must_be_zero() {
        let mut s = RouterStats {
            routed_replica: 9,
            routed_primary: 3,
            shed_busy: 1,
            demotions: 1,
            rejoins: 1,
            qod_violations: 0,
            repoints: 0,
        };
        router_respects_qod(&s).expect("clean audit");
        s.qod_violations = 1;
        assert!(router_respects_qod(&s).is_err());
    }

    #[test]
    fn one_primary_per_term_accepts_increasing_and_catches_reuse() {
        let log = |terms: &[u64]| -> Vec<(u64, String)> {
            terms.iter().map(|&t| (t, format!("r{t}"))).collect()
        };
        at_most_one_primary_per_term(&[]).expect("empty log");
        at_most_one_primary_per_term(&log(&[1])).expect("single promotion");
        at_most_one_primary_per_term(&log(&[1, 2, 5])).expect("gaps are fine");

        let err = at_most_one_primary_per_term(&log(&[1, 2, 2])).unwrap_err();
        assert!(err.contains("two primaries per term"), "{err}");
        assert!(at_most_one_primary_per_term(&log(&[3, 2])).is_err());
    }

    #[test]
    fn acked_loss_invariant_compares_floors() {
        no_acked_loss_across_failover(40, 40).expect("exact cover");
        no_acked_loss_across_failover(40, 55).expect("promoted ran ahead");
        let err = no_acked_loss_across_failover(41, 40).unwrap_err();
        assert!(err.contains("acked-durable loss"), "{err}");
    }

    #[test]
    fn trace_causality_accepts_an_ordered_chain_and_catches_breaks() {
        use quts_engine::{update_trace_id, TraceCtx, TraceEvent};
        use quts_metrics::TraceClass;

        let seed = 7;
        let id = update_trace_id(seed, 1);
        let root = TraceCtx::root(id);
        let rec = |seq: u64, event: TraceEvent| TraceRecord {
            seq,
            at_us: seq,
            event,
        };
        // ingest (primary) → ship (primary) → apply (replica), merged
        // upstream-first: the shape replication tests assert.
        let chain = vec![
            rec(
                0,
                TraceEvent::Ingest {
                    ctx: root,
                    class: TraceClass::Update,
                    id: 1,
                },
            ),
            rec(
                1,
                TraceEvent::ShipFrame {
                    ctx: root.child(quts_metrics::SPAN_SHIP),
                    lsn: 1,
                },
            ),
            rec(
                2,
                TraceEvent::ReplicaApply {
                    ctx: root.child(quts_metrics::SPAN_APPLY),
                    lsn: 1,
                },
            ),
        ];
        trace_causality(&chain, 0).expect("ordered chain");

        // A child before its parent is a violation...
        let mut reversed = chain.clone();
        reversed.swap(0, 1);
        assert!(trace_causality(&reversed, 0)
            .unwrap_err()
            .contains("never appeared"));
        // ...unless the ring lost records, when nothing can be proven.
        trace_causality(&reversed, 3).expect("lenient after drops");

        // An orphan (parent span never recorded at all) is caught too.
        let orphan = vec![rec(
            0,
            TraceEvent::GroupCommitAck {
                ctx: root.child(quts_metrics::SPAN_COMMIT_ACK),
                lsn: 1,
                batch: 4,
            },
        )];
        assert!(trace_causality(&orphan, 0).is_err());
    }

    #[test]
    fn profit_monotone_accepts_paper_contracts() {
        profit_monotone(&QualityContract::step(10.0, 100.0, 20.0, 2)).expect("step ok");
        profit_monotone(&QualityContract::linear(30.0, 80.0, 5.0, 3)).expect("linear ok");
    }

    #[test]
    fn profit_monotone_rejects_an_increasing_curve() {
        // A pathological contract whose QoS grows with response time.
        use quts_qc::ProfitFn;
        let qc = QualityContract::from_fns(
            ProfitFn::Piecewise {
                points: vec![(0.0, 0.0), (50_000.0, 50.0)],
            },
            ProfitFn::Zero,
        );
        assert!(profit_monotone(&qc).is_err());
    }
}
