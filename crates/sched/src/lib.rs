//! # Schedulers for queries and updates under Quality Contracts
//!
//! The policies evaluated in the QUTS paper:
//!
//! * [`GlobalFifo`] — one queue for both classes, ordered by arrival
//!   (Section 3.1; the only sensible single-queue policy, since QoS and
//!   QoD priorities are incomparable).
//! * [`GlobalGreedy`] — the single-*priority*-queue strawman of Section
//!   3.1, merging the two incomparable scales with a fixed exchange
//!   rate; exists to demonstrate empirically why it cannot win.
//! * [`DualQueue`] — preemptive dual priority queues with a *fixed*
//!   class priority: Update-High / Query-High, with VRD or FIFO query
//!   ordering ([`DualQueue::uh`], [`DualQueue::qh`], and the intro's
//!   naive [`DualQueue::fifo_uh`] / [`DualQueue::fifo_qh`]).
//! * [`Quts`] — the paper's contribution: a two-level scheduler whose
//!   high level hands the CPU to the query queue with probability ρ
//!   (re-drawn every atom time τ) and adapts ρ every adaptation period ω
//!   from the submitted Quality Contracts; the low level orders each
//!   queue independently ([`QueryOrder`] for queries, FIFO for updates).
//!
//! The ρ model itself — `Q ≈ QOSmax·ρ + QODmax·ρ·(1−ρ)` and its closed-
//! form maximiser — lives in [`rho`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dual;
pub mod fifo;
pub mod greedy;
pub mod idmap;
pub mod nonpreemptive;
pub mod policy;
pub mod quts;
pub mod rho;

pub use dual::DualQueue;
pub use fifo::GlobalFifo;
pub use greedy::GlobalGreedy;
pub use idmap::{IdHasher, IdMap};
pub use nonpreemptive::NonPreemptive;
pub use policy::{QueryKey, QueryOrder, QueryQueue, UpdateQueue};
pub use quts::{Quts, QutsConfig};
pub use rho::{modeled_profit, optimal_rho, RhoController};
