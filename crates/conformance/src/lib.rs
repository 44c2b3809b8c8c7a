//! # Conformance tooling: is the live engine the system the paper says?
//!
//! The repo has one implementation of the scheduling policies
//! (`quts-sched`) and two *drivers* of it: the discrete-event simulator
//! (`quts-sim`, used for the paper's figures) and the live engine
//! (`quts-engine`, a real scheduler thread over wall-clock time). Both
//! claim to give the policy the same inputs in the same order and to
//! act on its decisions the same way. This crate makes that claim
//! testable:
//!
//! - [`trace`] — a self-contained, JSONL-serialisable workload trace
//!   ([`ConfTrace`]) both engines can replay.
//! - [`envelope`] — the *equivalence envelope*: the configuration
//!   corner (zero switch cost, synthetic service times, unapplied-update
//!   staleness, non-preemptive scheduling) in which the two engines are
//!   expected to make **bit-identical decisions**, plus constructors
//!   that pin every knob on both sides.
//! - [`oracle`] — the differential oracle: replay one trace through
//!   both engines (the live one under the virtual-time driver,
//!   [`quts_engine::run_virtual`]) and diff dispatch order, per-query
//!   outcome/commit-time/profit accounting, the ρ-adaptation series,
//!   the atom-draw series, update application, and final store state.
//! - [`invariant`] — engine-independent invariants (ρ band, profit
//!   monotonicity, conservation of admitted work, staleness
//!   accounting, WAL LSN contiguity, replica watermark/staleness
//!   accounting, the router's dispatch-time QoD audit) checkable
//!   against either engine's run report, including mid-chaos-test.
//! - [`generate`] — a seeded trace generator (and a `proptest`
//!   [`Strategy`](proptest::strategy::Strategy) wrapper) plus a greedy
//!   delta-debugging shrinker that minimises any divergent trace to a
//!   small counterexample worth committing as a regression.
//! - [`sharded`] — the same oracle per slice of the sharded engine's
//!   hash partition, under each shard's derived seed, plus conservation
//!   across the slices.
//!
//! The crate's own acceptance test is adversarial, and lives outside
//! the crate: the repository's `mutants/` directory holds deliberately
//! broken copies of the code as patches (a ρ clamp flipped in
//! `quts-sched`, the live side's ρ smoothing dropped), each naming the
//! conformance test that must fail on it; `mutants/run.sh` checks they
//! all do.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod envelope;
pub mod generate;
pub mod invariant;
pub mod oracle;
pub mod sharded;
pub mod trace;

pub use envelope::{Envelope, Policy};
pub use generate::{gen_trace, shrink_divergent, GenParams};
pub use invariant::{
    at_most_one_primary_per_term, check_run, no_acked_loss_across_failover, profit_monotone,
    replica_consistent, router_respects_qod, trace_causality, wal_contiguous,
    wal_contiguous_after_snapshot, Invariant, Observation,
};
pub use oracle::{run_differential, DiffReport, Divergence, DivergenceKind};
pub use sharded::{run_sharded_differential, ShardedDiffReport};
pub use trace::{ConfQuery, ConfTrace, ConfUpdate};
