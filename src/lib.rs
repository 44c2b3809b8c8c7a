//! # QUTS — preference-aware query and update scheduling for web-databases
//!
//! A full reproduction of *"Preference-Aware Query and Update Scheduling
//! in Web-databases"* (Qu & Labrinidis, ICDE 2007): the Quality Contracts
//! framework, the QUTS two-level scheduler, every baseline it is compared
//! against, the main-memory web-database substrate they run on, a
//! deterministic discrete-event simulator, a calibrated synthetic
//! Stock.com/NYSE workload generator, and a live wall-clock execution
//! engine.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`qc`] | `quts-qc` | Quality Contracts: profit functions, composition, accounting |
//! | [`db`] | `quts-db` | stock store, executable operators, 2PL-HP locks, update register table |
//! | [`sim`] | `quts-sim` | deterministic discrete-event simulator |
//! | [`sched`] | `quts-sched` | FIFO / UH / QH baselines and QUTS itself |
//! | [`workload`] | `quts-workload` | calibrated trace generation, QC presets, trace I/O |
//! | [`metrics`] | `quts-metrics` | online stats, histograms, time series, profit ledgers |
//! | [`engine`] | `quts-engine` | live multithreaded wall-clock engine |
//! | [`server`] | `quts-server` | TCP front-end over the live engine |
//!
//! ## Quick start
//!
//! ```
//! use quts::prelude::*;
//!
//! // A 1-second slice of the paper's workload (rates preserved).
//! let mut trace = StockWorkloadConfig::paper_scaled_to(1.0).generate();
//! assign_qcs(&mut trace, QcPreset::Balanced, QcShape::Step, 7);
//!
//! let report = Simulator::new(
//!     SimConfig::with_stocks(trace.num_stocks),
//!     trace.queries,
//!     trace.updates,
//!     Quts::with_defaults(),
//! )
//! .run();
//! assert!(report.total_pct() > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use quts_db as db;
pub use quts_engine as engine;
pub use quts_metrics as metrics;
pub use quts_qc as qc;
pub use quts_sched as sched;
pub use quts_server as server;
pub use quts_sim as sim;
pub use quts_workload as workload;

/// The names most programs need, in one import.
pub mod prelude {
    pub use quts_db::{FsyncPolicy, QueryOp, QueryResult, StockId, Store, Trade};
    pub use quts_engine::{
        promote_at_term, promote_highest, Backoff, Cluster, ClusterStats, ControllerConfig,
        DurabilityConfig, Engine, EngineConfig, EngineState, FailoverReport, FailureVerdict,
        FaultPlan, GroupCommitConfig, LinkFaultPlan, LiveStats, PromoteError, QueryError,
        QueryTicket, Replica, ReplicaConfig, RoutedReadError, Router, ShipConfig, ShipListener,
        SubmitError, UpdateError, UpdateTicket,
    };
    pub use quts_qc::{Composition, ProfitFn, QcAggregates, QualityContract, StalenessAggregation};
    pub use quts_sched::{DualQueue, GlobalFifo, GlobalGreedy, QueryOrder, Quts, QutsConfig};
    pub use quts_server::{Server, ServerConfig};
    pub use quts_sim::{
        QuerySpec, RunReport, Scheduler, SimConfig, SimDuration, SimTime, Simulator, UpdateReentry,
        UpdateSpec,
    };
    pub use quts_workload::qcgen::assign_qcs;
    pub use quts_workload::{QcPreset, QcShape, StockWorkloadConfig, Trace, TraceStats};
}
