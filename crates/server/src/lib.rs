//! # Network front-end for the live QUTS engine
//!
//! The paper's setting is a *web*-database: an information portal serving
//! high volumes of read-only user requests while ingesting an external
//! update feed. This crate provides that outer layer — a line-oriented
//! TCP protocol over the [`quts_engine::Engine`], so ordinary network
//! clients can attach Quality Contracts to their queries:
//!
//! ```text
//! > GET IBM QOS 5 50 QOD 2 1        query IBM: $5 if < 50 ms, $2 if fresh
//! < OK price=121.00 rt=0.41ms uu=0 qos=5.00 qod=2.00
//! > AVG IBM 16 QOS 1 100            16-sample moving average
//! < OK avg=120.62 rt=0.38ms uu=0 qos=1.00 qod=0.00
//! > CMP IBM AOL GE                  price spread (no contract: best effort)
//! < OK min=52.00 max=121.00 spread=69.00 rt=0.29ms uu=0 qos=0.00 qod=0.00
//! > UPD IBM 121.50 300              feed: a trade
//! < OK
//! > STATS
//! < OK submitted=3 committed=3 profit=8.00 of=8.00 rho=0.750 applied=1 invalidated=0
//! > QUIT
//! < BYE
//! ```
//!
//! See [`protocol`] for the grammar and [`server`] for the listener.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod protocol;
pub mod server;
mod status;

pub use server::{Server, ServerConfig};
