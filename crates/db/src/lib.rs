//! # Main-memory web-database substrate
//!
//! The concrete system model of Section 2 of the QUTS paper: a
//! main-memory database `D` of `Nd` independently refreshed, hash-accessed
//! data items (stocks), serving **read-only queries** and **write-only
//! blind updates**.
//!
//! * [`store`] — the hash-indexed in-memory stock table,
//! * [`record`] — one stock's state including a bounded price history,
//! * [`ops`] — executable read-only query operators (lookup, moving
//!   average, comparison, portfolio aggregation) and blind-update
//!   application,
//! * [`register`] — the *update register table*: a new update's arrival
//!   invalidates any pending update on the same item, so the system only
//!   ever applies the freshest value,
//! * [`lock`] — a 2PL-HP (two-phase locking, high priority) lock table:
//!   read-write conflicts restart the lower-priority holder,
//! * [`staleness`] — per-item unapplied-update counters (`#uu`) and time
//!   differentials (`td`),
//! * [`wal`] — a checksummed append-only write-ahead log for the update
//!   stream (segments, torn-tail truncation on replay), written through
//!   one filesystem seam,
//! * [`simdir`] — the test double under that seam: armed write and sync
//!   faults, and a power cut,
//! * [`snapshot`] — periodic full-store snapshots plus a manifest, and
//!   the `snapshot + WAL tail` recovery protocol,
//! * [`tail`] — a read-only, resumable tailer over a live WAL directory,
//!   the primary-side primitive of log-shipping replication.
//!
//! CPU scheduling — who gets to run — is deliberately *not* here; that is
//! the `quts-sched` crate. This crate is the machine being scheduled.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lock;
pub mod ops;
pub mod record;
pub mod register;
pub mod simdir;
pub mod snapshot;
pub mod staleness;
pub mod store;
pub mod tail;
pub mod wal;

pub use lock::{Acquisition, LockMode, LockTable, TxnToken};
pub use ops::{AccessedItems, QueryOp, QueryResult, Trade};
pub use record::StockRecord;
pub use register::UpdateRegister;
pub use snapshot::Recovered;
pub use staleness::StalenessTracker;
pub use store::{StockId, Store};
pub use tail::{TailPoll, WalTailer};
pub use wal::FsyncPolicy;
