//! Scheduler-decision tracing: typed events in a fixed-capacity ring.
//!
//! QUTS is a *decision process* — a ρ-biased coin flip every atom time,
//! an adaptation step every period, shedding under overload — and the
//! aggregate tables cannot answer "why did this query miss its
//! contract?". [`TraceRing`] records the individual decisions as typed
//! [`TraceEvent`]s with a monotonic sequence number and the engine's
//! clock (virtual µs in the simulator, wall µs in the live engine).
//!
//! The ring is fixed-capacity and allocation-free after construction:
//! when full it overwrites the oldest record and counts the loss in
//! [`TraceRing::dropped`], so a hot engine can leave tracing on without
//! growing memory. Records export to JSON Lines with a stable key
//! order, which makes same-seed simulator traces byte-identical.

use std::fmt::Write as _;

/// How much the host engine records.
///
/// The level is a runtime knob, not a compile-time feature: the
/// disabled path is one branch on this enum per decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing (the default; the fast path).
    #[default]
    Off,
    /// Record query-lifecycle spans into histograms, but no event ring.
    Spans,
    /// Spans plus every scheduler decision in the event ring.
    Full,
}

impl TraceLevel {
    /// Whether lifecycle spans are recorded at this level.
    pub fn spans(self) -> bool {
        self >= TraceLevel::Spans
    }

    /// Whether individual decision events are recorded at this level.
    pub fn events(self) -> bool {
        self >= TraceLevel::Full
    }
}

/// Runtime tracing configuration shared by the simulator and the live
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// What to record.
    pub level: TraceLevel,
    /// Capacity of the event ring (records), used when `level` is
    /// [`TraceLevel::Full`].
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            level: TraceLevel::Off,
            ring_capacity: 65_536,
        }
    }
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Lifecycle spans only.
    pub fn spans() -> Self {
        TraceConfig {
            level: TraceLevel::Spans,
            ..TraceConfig::default()
        }
    }

    /// Spans plus the full decision ring.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
            ..TraceConfig::default()
        }
    }

    /// Same level with a different ring capacity.
    pub fn with_ring_capacity(mut self, records: usize) -> Self {
        self.ring_capacity = records;
        self
    }
}

/// End-to-end request-trace context: a 64-bit trace id shared by every
/// event on one request's causal chain, plus the per-ring span ids that
/// order the chain inside a single [`TraceRing`].
///
/// Trace ids are derived deterministically from the workload seed
/// ([`query_trace_id`] / [`update_trace_id`]), so same-seed runs stamp
/// identical ids and the primary and a replica compute the *same* id
/// for the same WAL record without shipping the id over the wire.
///
/// `parent == 0` marks a root span; each stage uses a fixed span number
/// (see the `SPAN_*` constants) so the chain's shape is knowable without
/// global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// 64-bit request trace id (shared across processes).
    pub trace_id: u64,
    /// This event's span number within the ring.
    pub span: u32,
    /// The parent span's number; `0` for a root span.
    pub parent: u32,
}

impl TraceCtx {
    /// A root context (span [`SPAN_ROOT`], no parent).
    pub fn root(trace_id: u64) -> Self {
        TraceCtx {
            trace_id,
            span: SPAN_ROOT,
            parent: 0,
        }
    }

    /// A child context: same trace, new span, parented on `self`.
    pub fn child(self, span: u32) -> Self {
        TraceCtx {
            trace_id: self.trace_id,
            span,
            parent: self.span,
        }
    }
}

/// Root span of a chain: the routing decision (routed reads) or the
/// ingest stamp (everything else).
pub(crate) const SPAN_ROOT: u32 = 1;
/// Ingest on the target engine when a router already opened the chain.
pub const SPAN_INGEST: u32 = 2;
/// Group-commit ticket resolution (durable LSN assigned and fsync'd).
pub const SPAN_COMMIT_ACK: u32 = 2;
/// A WAL frame shipped to a replica.
pub const SPAN_SHIP: u32 = 3;
/// A shipped frame applied on a replica (root in the replica's ring).
pub const SPAN_APPLY: u32 = 4;

/// splitmix64 finalizer: the bijective mixer both trace-id derivations
/// share.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic trace id for the `n`-th admitted query (by the
/// engine's merged arrival sequence) under `seed`.
pub fn query_trace_id(seed: u64, seq: u64) -> u64 {
    mix64(seed ^ 0x0051_5545_5259_u64 ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Deterministic trace id for the update durably logged at `lsn` under
/// `seed`. The primary computes this at append time and a replica
/// recomputes it at apply time from the same `(seed, lsn)` pair, so the
/// id never travels inside a WAL frame.
pub fn update_trace_id(seed: u64, lsn: u64) -> u64 {
    mix64(seed ^ 0x5550_4441_5445u64 ^ lsn.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Deterministic trace id for the `n`-th read the router dispatched
/// under `seed`. A separate domain from [`query_trace_id`]: the router's
/// counter and the engine's arrival sequence advance independently, so
/// sharing a domain could collide two different requests.
pub fn route_trace_id(seed: u64, n: u64) -> u64 {
    mix64(seed ^ 0x0052_4f55_5445_u64 ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Where the router sent a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTarget {
    /// A replica qualified and was picked.
    Replica,
    /// No replica qualified; the primary served the read.
    Primary,
}

impl RouteTarget {
    /// Stable lowercase name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            RouteTarget::Replica => "replica",
            RouteTarget::Primary => "primary",
        }
    }
}

/// A step within a cluster failover, as recorded by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverStep {
    /// The primary is declared lost and a promotable replica was
    /// elected. `elapsed_us` is the detection latency.
    Confirmed,
    /// A replica was promoted at the new term. `elapsed_us` is the
    /// promotion time (seal + term bump + recovery).
    Promoted,
    /// The router was re-pointed at the promoted engine. `elapsed_us`
    /// is the full failover MTTR.
    Repointed,
}

impl FailoverStep {
    /// Stable lowercase name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            FailoverStep::Confirmed => "confirmed",
            FailoverStep::Promoted => "promoted",
            FailoverStep::Repointed => "repointed",
        }
    }
}

/// Transaction class as seen by the tracer (mirror of the scheduler's
/// class enum, kept here so `quts-metrics` stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// A read-only user query.
    Query,
    /// A blind write from the update stream.
    Update,
}

impl TraceClass {
    /// Stable lowercase name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceClass::Query => "query",
            TraceClass::Update => "update",
        }
    }
}

/// One scheduler decision.
///
/// Numeric fields use the engine's native units: times in µs of the
/// host clock, staleness in the simulator's configured metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An atom slice began: the ρ-biased coin picked `class`.
    AtomStart {
        /// Class favoured for this atom.
        class: TraceClass,
        /// Bias ρ in effect for the draw.
        rho: f64,
        /// Queries queued at the draw.
        queries_queued: u64,
        /// Updates queued at the draw.
        updates_queued: u64,
    },
    /// An adaptation period ended and ρ was re-optimised.
    Adapt {
        /// ρ before the step.
        old_rho: f64,
        /// ρ after smoothing.
        new_rho: f64,
        /// Summed QOSmax submitted over the period.
        qos_max: f64,
        /// Summed QODmax submitted over the period.
        qod_max: f64,
    },
    /// A transaction was handed the CPU.
    Dispatch {
        /// Class of the dispatched transaction.
        class: TraceClass,
        /// Host-assigned transaction id.
        id: u64,
    },
    /// A query committed and answered.
    Commit {
        /// Query id.
        id: u64,
        /// Submitted-to-answer latency in µs.
        response_us: u64,
        /// Unapplied updates (or configured staleness metric) at answer.
        staleness: u64,
    },
    /// A query expired (lifetime exceeded) and was shed.
    Expire {
        /// Query id.
        id: u64,
        /// Whether it had already been dispatched at least once.
        dispatched: bool,
    },
    /// An update was applied to the store.
    UpdateApply {
        /// Update id.
        id: u64,
        /// Arrival-to-apply delay in µs.
        delay_us: u64,
    },
    /// A queued update was invalidated by a newer one on the same item.
    UpdateInvalidate {
        /// Id of the *invalidated* (older) update.
        id: u64,
    },
    /// An update was dropped by overload shedding.
    UpdateDrop {
        /// Update id.
        id: u64,
    },
    /// A request entered the engine and was stamped with its trace id.
    Ingest {
        /// Trace context (root unless a router opened the chain).
        ctx: TraceCtx,
        /// Class of the admitted transaction.
        class: TraceClass,
        /// Host-assigned transaction id (query seq or durable LSN).
        id: u64,
    },
    /// The router picked a target for a read.
    RouteDecision {
        /// Trace context (always a root span).
        ctx: TraceCtx,
        /// The node class that will serve the read.
        target: RouteTarget,
        /// Dispatch-time staleness bound (replication lag in LSNs) of
        /// the chosen target; `0` for the primary.
        bound: u64,
        /// QoD profit the contract earns at that bound.
        qod_earned: f64,
        /// The contract's full QoD profit (`qodmax`).
        qod_full: f64,
    },
    /// A WAL frame left the primary towards a replica.
    ShipFrame {
        /// Trace context (child of the update's ingest span).
        ctx: TraceCtx,
        /// LSN of the shipped frame.
        lsn: u64,
    },
    /// A shipped frame was applied on a replica.
    ReplicaApply {
        /// Trace context (root within the replica's own ring).
        ctx: TraceCtx,
        /// LSN of the applied frame.
        lsn: u64,
    },
    /// A group-commit ticket resolved: the update is durable at `lsn`.
    GroupCommitAck {
        /// Trace context (child of the update's ingest span).
        ctx: TraceCtx,
        /// Durable LSN assigned to the update.
        lsn: u64,
        /// Size of the commit group that made it durable.
        batch: u32,
    },
    /// A cluster-controller failover step (confirmed, promoted,
    /// re-pointed). Carries no trace context: failovers are cluster
    /// events, not request-scoped ones.
    Failover {
        /// The fencing term the failover established (or, for
        /// `Confirmed`, the term being given up).
        term: u64,
        /// Which step of the failover this is.
        step: FailoverStep,
        /// Time since the primary was lost: the detection latency, plus
        /// the phases completed so far.
        elapsed_us: u64,
    },
}

impl TraceEvent {
    /// Stable lowercase event name used in the JSONL export.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::AtomStart { .. } => "atom_start",
            TraceEvent::Adapt { .. } => "adapt",
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Expire { .. } => "expire",
            TraceEvent::UpdateApply { .. } => "update_apply",
            TraceEvent::UpdateInvalidate { .. } => "update_invalidate",
            TraceEvent::UpdateDrop { .. } => "update_drop",
            TraceEvent::Ingest { .. } => "ingest",
            TraceEvent::RouteDecision { .. } => "route_decision",
            TraceEvent::ShipFrame { .. } => "ship_frame",
            TraceEvent::ReplicaApply { .. } => "replica_apply",
            TraceEvent::GroupCommitAck { .. } => "group_commit_ack",
            TraceEvent::Failover { .. } => "failover",
        }
    }

    /// The trace context carried by this event, when it is part of a
    /// request's causal chain (the PR-3 scheduler-decision events carry
    /// none).
    pub fn ctx(&self) -> Option<TraceCtx> {
        match self {
            TraceEvent::Ingest { ctx, .. }
            | TraceEvent::RouteDecision { ctx, .. }
            | TraceEvent::ShipFrame { ctx, .. }
            | TraceEvent::ReplicaApply { ctx, .. }
            | TraceEvent::GroupCommitAck { ctx, .. } => Some(*ctx),
            _ => None,
        }
    }
}

/// A decision event captured by a scheduler before the host engine
/// stamps it into the ring (the scheduler knows *when* it decided, the
/// engine owns the sequence numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedDecision {
    /// Decision time in host-clock µs.
    pub at_us: u64,
    /// The decision.
    pub event: TraceEvent,
}

/// One stamped record in the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Monotonic sequence number (never reused, survives overwrites).
    pub seq: u64,
    /// Host-clock µs.
    pub at_us: u64,
    /// The decision.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends this record as one JSON object (no trailing newline) with
    /// a stable key order: `seq`, `at_us`, `event`, then event fields.
    ///
    /// Floats use Rust's shortest-roundtrip `Display`, so equal inputs
    /// always serialise to equal bytes.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_us\":{},\"event\":\"{}\"",
            self.seq,
            self.at_us,
            self.event.kind()
        );
        match self.event {
            TraceEvent::AtomStart {
                class,
                rho,
                queries_queued,
                updates_queued,
            } => {
                let _ = write!(
                    out,
                    ",\"class\":\"{}\",\"rho\":{},\"queries\":{},\"updates\":{}",
                    class.as_str(),
                    rho,
                    queries_queued,
                    updates_queued
                );
            }
            TraceEvent::Adapt {
                old_rho,
                new_rho,
                qos_max,
                qod_max,
            } => {
                let _ = write!(
                    out,
                    ",\"old_rho\":{old_rho},\"new_rho\":{new_rho},\"qos_max\":{qos_max},\"qod_max\":{qod_max}"
                );
            }
            TraceEvent::Dispatch { class, id } => {
                let _ = write!(out, ",\"class\":\"{}\",\"id\":{}", class.as_str(), id);
            }
            TraceEvent::Commit {
                id,
                response_us,
                staleness,
            } => {
                let _ = write!(
                    out,
                    ",\"id\":{id},\"response_us\":{response_us},\"staleness\":{staleness}"
                );
            }
            TraceEvent::Expire { id, dispatched } => {
                let _ = write!(out, ",\"id\":{id},\"dispatched\":{dispatched}");
            }
            TraceEvent::UpdateApply { id, delay_us } => {
                let _ = write!(out, ",\"id\":{id},\"delay_us\":{delay_us}");
            }
            TraceEvent::UpdateInvalidate { id } | TraceEvent::UpdateDrop { id } => {
                let _ = write!(out, ",\"id\":{id}");
            }
            TraceEvent::Ingest { ctx, class, id } => {
                write_ctx(out, ctx);
                let _ = write!(out, ",\"class\":\"{}\",\"id\":{}", class.as_str(), id);
            }
            TraceEvent::RouteDecision {
                ctx,
                target,
                bound,
                qod_earned,
                qod_full,
            } => {
                write_ctx(out, ctx);
                let _ = write!(
                    out,
                    ",\"target\":\"{}\",\"bound\":{},\"qod_earned\":{},\"qod_full\":{}",
                    target.as_str(),
                    bound,
                    qod_earned,
                    qod_full
                );
            }
            TraceEvent::ShipFrame { ctx, lsn } | TraceEvent::ReplicaApply { ctx, lsn } => {
                write_ctx(out, ctx);
                let _ = write!(out, ",\"lsn\":{lsn}");
            }
            TraceEvent::GroupCommitAck { ctx, lsn, batch } => {
                write_ctx(out, ctx);
                let _ = write!(out, ",\"lsn\":{lsn},\"batch\":{batch}");
            }
            TraceEvent::Failover {
                term,
                step,
                elapsed_us,
            } => {
                let _ = write!(
                    out,
                    ",\"term\":{term},\"step\":\"{}\",\"elapsed_us\":{elapsed_us}",
                    step.as_str()
                );
            }
        }
        out.push('}');
    }
}

/// Appends the trace-context keys in their stable order (`trace_id`,
/// `span`, `parent`) right after the `event` key.
fn write_ctx(out: &mut String, ctx: TraceCtx) {
    let _ = write!(
        out,
        ",\"trace_id\":{},\"span\":{},\"parent\":{}",
        ctx.trace_id, ctx.span, ctx.parent
    );
}

/// Fixed-capacity event ring: O(1) push, overwrite-oldest on overflow.
///
/// ```
/// use quts_metrics::trace::{TraceEvent, TraceRing};
/// let mut ring = TraceRing::new(2);
/// for id in 0..3 {
///     ring.push(id * 10, TraceEvent::UpdateDrop { id });
/// }
/// assert_eq!(ring.dropped(), 1); // oldest record overwritten
/// let seqs: Vec<u64> = ring.iter_ordered().map(|r| r.seq).collect();
/// assert_eq!(seqs, [1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            seq: 0,
            dropped: 0,
        }
    }

    /// Stamps and stores an event; overwrites the oldest when full.
    pub fn push(&mut self, at_us: u64, event: TraceEvent) {
        let rec = TraceRecord {
            seq: self.seq,
            at_us,
            event,
        };
        self.seq += 1;
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Stamps and stores a batch of scheduler decisions.
    pub fn extend_decisions(&mut self, decisions: &[SchedDecision]) {
        for d in decisions {
            self.push(d.at_us, d.event);
        }
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no record was ever pushed (or capacity is zero).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (held + dropped).
    pub fn total(&self) -> u64 {
        self.seq
    }

    /// Records lost to overwrites since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates records oldest-first.
    pub fn iter_ordered(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Drains the ring into an ordered `Vec`, leaving it empty but
    /// keeping the sequence counter (and `dropped`) running.
    pub fn drain_ordered(&mut self) -> Vec<TraceRecord> {
        let out: Vec<TraceRecord> = self.iter_ordered().copied().collect();
        self.buf.clear();
        self.head = 0;
        out
    }

    /// Serialises the held records oldest-first as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        records_to_jsonl(self.iter_ordered())
    }
}

/// Serialises records as JSON Lines (one object per line, trailing
/// newline after every line).
pub fn records_to_jsonl<'a, I>(records: I) -> String
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut out = String::new();
    for rec in records {
        rec.write_json(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order() {
        assert!(!TraceLevel::Off.spans());
        assert!(!TraceLevel::Off.events());
        assert!(TraceLevel::Spans.spans());
        assert!(!TraceLevel::Spans.events());
        assert!(TraceLevel::Full.spans());
        assert!(TraceLevel::Full.events());
        assert_eq!(TraceConfig::default().level, TraceLevel::Off);
    }

    #[test]
    fn ring_fills_then_overwrites_oldest() {
        let mut ring = TraceRing::new(3);
        for id in 0..5u64 {
            ring.push(id, TraceEvent::UpdateDrop { id });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.iter_ordered().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        let ats: Vec<u64> = ring.iter_ordered().map(|r| r.at_us).collect();
        assert_eq!(ats, [2, 3, 4]);
    }

    #[test]
    fn drain_keeps_sequence_running() {
        let mut ring = TraceRing::new(2);
        ring.push(0, TraceEvent::UpdateDrop { id: 0 });
        let first = ring.drain_ordered();
        assert_eq!(first.len(), 1);
        assert!(ring.is_empty());
        ring.push(1, TraceEvent::UpdateDrop { id: 1 });
        assert_eq!(ring.iter_ordered().next().unwrap().seq, 1);
    }

    #[test]
    fn jsonl_is_stable_and_line_per_record() {
        let mut ring = TraceRing::new(8);
        ring.push(
            10,
            TraceEvent::AtomStart {
                class: TraceClass::Query,
                rho: 0.75,
                queries_queued: 3,
                updates_queued: 1,
            },
        );
        ring.push(
            20,
            TraceEvent::Adapt {
                old_rho: 0.75,
                new_rho: 0.5,
                qos_max: 10.0,
                qod_max: 10.0,
            },
        );
        ring.push(
            30,
            TraceEvent::Commit {
                id: 7,
                response_us: 1234,
                staleness: 2,
            },
        );
        let jsonl = ring.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"at_us\":10,\"event\":\"atom_start\",\"class\":\"query\",\"rho\":0.75,\"queries\":3,\"updates\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"at_us\":20,\"event\":\"adapt\",\"old_rho\":0.75,\"new_rho\":0.5,\"qos_max\":10,\"qod_max\":10}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"at_us\":30,\"event\":\"commit\",\"id\":7,\"response_us\":1234,\"staleness\":2}"
        );
        // Serialising twice gives identical bytes.
        assert_eq!(jsonl, ring.to_jsonl());
    }

    #[test]
    fn every_event_kind_serialises() {
        let events = [
            TraceEvent::AtomStart {
                class: TraceClass::Update,
                rho: 0.1,
                queries_queued: 0,
                updates_queued: 0,
            },
            TraceEvent::Adapt {
                old_rho: 0.2,
                new_rho: 0.3,
                qos_max: 1.0,
                qod_max: 2.0,
            },
            TraceEvent::Dispatch {
                class: TraceClass::Update,
                id: 1,
            },
            TraceEvent::Commit {
                id: 2,
                response_us: 3,
                staleness: 4,
            },
            TraceEvent::Expire {
                id: 5,
                dispatched: true,
            },
            TraceEvent::UpdateApply { id: 6, delay_us: 7 },
            TraceEvent::UpdateInvalidate { id: 8 },
            TraceEvent::UpdateDrop { id: 9 },
            TraceEvent::Ingest {
                ctx: TraceCtx::root(10),
                class: TraceClass::Query,
                id: 11,
            },
            TraceEvent::RouteDecision {
                ctx: TraceCtx::root(12),
                target: RouteTarget::Replica,
                bound: 2,
                qod_earned: 1.5,
                qod_full: 1.5,
            },
            TraceEvent::ShipFrame {
                ctx: TraceCtx::root(13).child(SPAN_SHIP),
                lsn: 14,
            },
            TraceEvent::ReplicaApply {
                ctx: TraceCtx {
                    trace_id: 15,
                    span: SPAN_APPLY,
                    parent: 0,
                },
                lsn: 16,
            },
            TraceEvent::GroupCommitAck {
                ctx: TraceCtx::root(17).child(SPAN_COMMIT_ACK),
                lsn: 18,
                batch: 4,
            },
        ];
        let mut ring = TraceRing::new(events.len());
        for (i, e) in events.iter().enumerate() {
            ring.push(i as u64, *e);
        }
        for (rec, line) in ring.iter_ordered().zip(ring.to_jsonl().lines()) {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains(&format!("\"event\":\"{}\"", rec.event.kind())));
            // Every chain event carries its trace id under a stable key.
            if let Some(ctx) = rec.event.ctx() {
                assert!(
                    line.contains(&format!("\"trace_id\":{}", ctx.trace_id)),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn trace_ctx_events_serialise_with_stable_keys() {
        let mut ring = TraceRing::new(4);
        let ctx = TraceCtx::root(0xfeed);
        ring.push(
            5,
            TraceEvent::Ingest {
                ctx,
                class: TraceClass::Update,
                id: 3,
            },
        );
        ring.push(
            6,
            TraceEvent::GroupCommitAck {
                ctx: ctx.child(SPAN_COMMIT_ACK),
                lsn: 3,
                batch: 2,
            },
        );
        let lines: Vec<String> = ring.to_jsonl().lines().map(String::from).collect();
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"at_us\":5,\"event\":\"ingest\",\"trace_id\":65261,\"span\":1,\"parent\":0,\"class\":\"update\",\"id\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"at_us\":6,\"event\":\"group_commit_ack\",\"trace_id\":65261,\"span\":2,\"parent\":1,\"lsn\":3,\"batch\":2}"
        );
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct_by_class() {
        // Same (seed, n) always derives the same id; query and update
        // domains never alias; ids spread (no trivial collisions over a
        // small dense range).
        let mut seen = std::collections::HashSet::new();
        for n in 0..1000u64 {
            assert_eq!(query_trace_id(42, n), query_trace_id(42, n));
            assert_eq!(update_trace_id(42, n), update_trace_id(42, n));
            assert_ne!(query_trace_id(42, n), update_trace_id(42, n));
            assert!(seen.insert(query_trace_id(42, n)));
            assert!(seen.insert(update_trace_id(42, n)));
        }
        // A different seed relabels every chain.
        assert_ne!(update_trace_id(1, 7), update_trace_id(2, 7));
    }

    #[test]
    fn child_spans_parent_on_their_origin() {
        let root = TraceCtx::root(9);
        assert_eq!(root.span, SPAN_ROOT);
        assert_eq!(root.parent, 0);
        let ship = root.child(SPAN_SHIP);
        assert_eq!(ship.trace_id, 9);
        assert_eq!(ship.span, SPAN_SHIP);
        assert_eq!(ship.parent, SPAN_ROOT);
    }
}
