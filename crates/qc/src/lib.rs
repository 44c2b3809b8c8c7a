//! # Quality Contracts (QC)
//!
//! A Quality Contract attaches a user's preferences to a query by assigning
//! *profit* to outcomes along two incomparable quality dimensions:
//!
//! * **QoS** — Quality of Service, measured as response time, and
//! * **QoD** — Quality of Data, measured as staleness (by default the number
//!   of unapplied updates, `#uu`).
//!
//! Each dimension carries a non-increasing [`ProfitFn`]: the faster the
//! answer / the fresher the data, the more the server earns. Scheduling
//! queries and updates then becomes the problem of maximising total earned
//! profit, which is exactly what the QUTS scheduler (crate `quts-sched`)
//! does.
//!
//! This crate is the framework of Section 2.2 of *"Preference-Aware Query
//! and Update Scheduling in Web-databases"* (Qu & Labrinidis, ICDE 2007):
//! profit functions ([`profit`]), contracts and their composition modes
//! ([`contract`]), staleness metrics ([`metric`]) and the aggregate symbols
//! of the paper's Table 1 ([`accounting`]).
//!
//! ```
//! use quts_qc::contract::QualityContract;
//!
//! // Figure 2 of the paper: a step QC worth $1 for answering within 50 ms
//! // and $2 for serving data with no missed update.
//! let qc = QualityContract::step(1.0, 50.0, 2.0, 1);
//! assert_eq!(qc.qos_profit(20.0), 1.0);  // fast enough
//! assert_eq!(qc.qos_profit(60.0), 0.0);  // too slow
//! assert_eq!(qc.qod_profit(0.0), 2.0);   // perfectly fresh
//! assert_eq!(qc.qod_profit(1.0), 0.0);   // one missed update is too many
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod contract;
pub mod metric;
pub mod profit;

pub use accounting::QcAggregates;
pub use contract::{Composition, QualityContract};
pub use metric::StalenessAggregation;
pub use profit::ProfitFn;
