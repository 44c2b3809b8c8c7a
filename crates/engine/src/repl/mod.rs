//! Staleness-aware WAL replication.
//!
//! This module turns the single-node engine into a replicated read
//! farm without weakening any promise the WAL already makes:
//!
//! - **[`ShipListener`]** (primary side) streams the durability
//!   directory's WAL over TCP — the exact CRC'd frames on disk — with
//!   resume-from-any-LSN, snapshot bootstrap for newcomers, and
//!   injectable link faults ([`LinkFaultPlan`]) for chaos tests.
//! - **[`Replica`]** applies the stream in strict LSN order through
//!   register-table semantics, maintains its own durable WAL +
//!   snapshots (byte-identical prefix of the primary's log), and
//!   reports `applied_lsn` / `durable_lsn` upstream. Acks are
//!   sync-first: an acked LSN survives a replica crash.
//! - **[`Router`]** sends each read to the cheapest node whose
//!   staleness bound — its replication lag — still earns the query's
//!   full QoD profit, with lag-hysteresis health demotion and the
//!   bounded degradation ladder *replica → primary → `ERR overloaded`*.
//!   [`Router::dispatch`] is its one read path.
//! - **[`promote_at_term`]** implements promotion: seal a replica and
//!   recover a primary engine from its directory at a new term — at most
//!   one primary per term, enforced by the MANIFEST.
//! - **[`Cluster`]** closes the loop, and [`Cluster::launch`] is the one
//!   way to build one: it starts the primary, its listener and replicas
//!   under a controller that detects a lost primary (crash or
//!   partition), elects the replica with the highest *durable* LSN,
//!   promotes it at a bumped term, re-ships behind a term floor and
//!   re-points the router — zero-acked-loss autopilot failover.
//!
//! [`LinkFaultPlan`]: crate::fault::LinkFaultPlan

mod controller;
mod failover;
mod replica;
mod router;
mod ship;
mod wire;

pub(crate) use controller::ClusterInner;
pub use controller::{Cluster, ClusterStats, ControllerConfig, FailoverReport, FailureVerdict};
pub use failover::{promote_at_term, PromoteError};
pub use replica::{Replica, ReplicaConfig, ReplicaHandle, ReplicaStats};
pub use router::{Router, RouterStats};
pub use ship::{ReplicaPeerStats, ShipConfig, ShipListener, ShipRegistry, ShipTotals};
