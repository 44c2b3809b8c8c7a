//! # Discrete-event simulator for query/update scheduling
//!
//! A deterministic, virtual-time reproduction of the evaluation
//! methodology of the QUTS paper: a single-CPU main-memory web-database
//! that receives read-only queries (with Quality Contracts) and blind
//! write-only updates, executes them under a pluggable [`Scheduler`], and
//! accounts profit, response times and staleness.
//!
//! * [`time`] — microsecond-precision virtual clock types,
//! * [`event`] — the versioned event queue,
//! * [`txn`] — query/update specifications and runtime state,
//! * [`scheduler`] — the [`Scheduler`] trait every policy implements,
//! * [`engine`] — the simulation main loop (arrivals, 2PL-HP dispatch,
//!   preemption, invalidation, lifetime expiry, commits),
//! * [`report`] — per-run results.
//!
//! The simulator is *exactly deterministic*: events are ordered by
//! `(time, sequence)`, schedulers receive their own seeded RNGs, and no
//! hash-iteration order leaks into decisions. Running the same trace with
//! the same scheduler twice yields identical reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod event;
pub mod report;
pub mod scheduler;
pub mod time;
pub mod txn;

pub use engine::{SimConfig, Simulator, UpdateReentry};
pub use report::{QueryOutcome, RunReport};
pub use scheduler::{Class, QueryInfo, Scheduler, TxnRef, UpdateInfo};
pub use time::{SimDuration, SimTime};
pub use txn::{QueryId, QuerySpec, UpdateId, UpdateSpec};

// Observability types shared with the policies and the live engine, so
// scheduler crates need no direct `quts-metrics` dependency.
pub use quts_metrics::{
    LifecycleSpans, SchedDecision, TraceClass, TraceConfig, TraceEvent, TraceLevel, TraceRecord,
};
