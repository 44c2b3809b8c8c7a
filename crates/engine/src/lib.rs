//! # Live QUTS execution engine
//!
//! Where `quts-sim` replays traces on a virtual clock, this crate runs
//! the paper's system *for real*: a scheduler thread owns the in-memory
//! stock store and executes read-only queries and blind updates over
//! wall-clock time, time-sharing the CPU between the two classes with
//! the QUTS rules — ρ-biased atom draws, per-period ρ adaptation from
//! submitted Quality Contracts, VRD query ordering, FIFO updates with
//! register-table invalidation.
//!
//! The engine is deliberately single-worker: the paper's model is CPU
//! scheduling on one core of a main-memory database, and a single
//! executor keeps the scheduling semantics exact. Clients talk to it
//! through a cloneable [`EngineHandle`] from any number of threads.
//!
//! The engine is hardened for overload and failure:
//!
//! - **Bounded admission** — submissions go through a bounded queue;
//!   past capacity they fail fast with [`SubmitError::QueueFull`]
//!   instead of growing memory without bound.
//! - **Profit-aware shedding** — queries whose contract lifetime ran
//!   out are aborted unexecuted ([`QueryError::Expired`], zero profit),
//!   and the pending-update backlog is capped by a high-water mark on
//!   top of register-table invalidation.
//! - **Panic supervision** — the scheduler runs under `catch_unwind`;
//!   a panic either restarts it over the surviving store (opt-in, with
//!   capped exponential backoff) or poisons the engine. Either way
//!   every in-flight [`QueryTicket`] resolves: an answer or a clean
//!   error, never a hang.
//! - **Fault injection** — a [`FaultPlan`] on [`EngineConfig`] drives
//!   chaos tests (injected panics, dropped replies, durability IO
//!   faults); load comes from the modelled service costs and the update
//!   feed, not from the plan.
//! - **Durability** — an opt-in [`DurabilityConfig`] appends every
//!   accepted update to a checksummed WAL *before* enqueue and publishes
//!   periodic snapshots. Starting over an initialised directory, and the
//!   supervisor restart path, rebuild the store, the staleness counters
//!   and the pending update queue from `snapshot + WAL tail`, so a
//!   recovered engine never reports data fresh that it knows is stale.
//!
//! ```
//! use quts_engine::{Engine, EngineConfig};
//! use quts_db::{QueryOp, Store, Trade};
//! use quts_qc::QualityContract;
//!
//! let mut store = Store::new();
//! let ibm = store.insert("IBM", 120.0);
//! let engine = Engine::start(store, EngineConfig::default());
//!
//! engine
//!     .submit_update(Trade { stock: ibm, price: 121.0, volume: 10, trade_time_ms: 0 })
//!     .expect("admitted");
//! let reply = engine
//!     .submit_query(QueryOp::Lookup(ibm), QualityContract::step(1.0, 50.0, 2.0, 1))
//!     .expect("admitted")
//!     .recv()
//!     .unwrap();
//! assert!(reply.profit() > 0.0);
//! let _stats = engine.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
pub mod config;
pub mod durability;
pub mod fault;
mod oneshot;
pub mod repl;
pub mod retry;
pub mod runtime;
pub mod shard;
mod shared;
pub mod stats;
pub mod supervisor;
pub mod virt;

pub use config::{EngineConfig, LivePolicy};
pub use durability::{DurabilityConfig, GroupCommitConfig};
pub use fault::{FaultPlan, LinkFaultPlan};
pub use quts_db::FsyncPolicy;
pub use quts_metrics::{
    query_trace_id, records_to_jsonl, route_trace_id, update_trace_id, FlightRecorder, RouteTarget,
    SeriesKind, TraceConfig, TraceCtx, TraceEvent, TraceLevel, TraceRecord,
};
pub use repl::{
    promote_at_term, Cluster, ClusterStats, ControllerConfig, FailoverReport, FailureVerdict,
    PromoteError, Replica, ReplicaConfig, ReplicaHandle, ReplicaPeerStats, ReplicaStats, Router,
    RouterStats, ShipConfig, ShipListener, ShipRegistry, ShipTotals,
};
pub use retry::Backoff;
pub use runtime::{
    Engine, EngineHandle, QueryError, QueryReply, QueryTicket, SubmitError, UpdateError,
    UpdateTicket, QUERY_WAIT,
};
pub use shard::{
    merge_shard_stats, shard_of, shard_seed, splitmix64, CrossShardStats, ShardConfig, ShardMap,
    ShardedEngine, ShardedHandle,
};
pub use stats::{LiveStats, RHO_HISTORY_CAP};
pub use supervisor::EngineState;
pub use virt::{run_virtual, VirtualOutcome, VirtualRunReport};
