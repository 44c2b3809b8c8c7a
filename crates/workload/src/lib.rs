//! # Workload generation and trace I/O
//!
//! The paper evaluates on proprietary traces: user queries from a stock
//! information web site ("Stock.com", April 24 2000, 9:30–10:00 am) and
//! the matching NYSE trades. Those traces cannot be redistributed, so
//! this crate generates *synthetic equivalents calibrated to every
//! statistic the paper publishes*:
//!
//! | Published fact (Table 3 / Fig 5) | Generator knob |
//! |---|---|
//! | 82,129 queries / 496,892 updates / 4,608 stocks / 30 min | [`StockWorkloadConfig`] counts & horizon |
//! | query cost 5–9 ms, update cost 1–5 ms | cost ranges |
//! | query rate ≈ flat with small changes (Fig 5a) | per-segment jitter |
//! | update rate declining through the half-hour (Fig 5b) | linear decline factor |
//! | most stocks have more updates than queries; updates concentrate on query-cold stocks (Fig 5c) | Zipf skews + anti-correlation |
//!
//! Modules: [`arrivals`] (non-homogeneous Poisson processes),
//! [`popularity`] (Zipf samplers and anti-correlated rankings),
//! [`stockgen`] (the calibrated trace generator), [`qcgen`] (Quality
//! Contract presets for every experiment), [`trace`] (the trace container
//! and CSV round-tripping), [`stats`] (trace characteristic summaries).
//!
//! ## How a trace is sampled, and why it cannot differ
//!
//! A trace is a pure function of its [`StockWorkloadConfig`]: one seeded
//! RNG, drawn from in a fixed order. Generation is linear in the number of
//! transactions but for one sort of the arrival instants:
//!
//! * arrival segments and Zipf ranks are inverse-CDF draws answered from a
//!   guide table ([`popularity`]) — the index `partition_point` would
//!   return, reached in about one comparison;
//! * the update events (cluster heads in time order, each trailed by its
//!   cluster at millisecond gaps) are put in `(time, stock)` order by one
//!   insertion pass, and the few padding singletons merged in — the order
//!   is total, so any correct sort yields the same sequence.
//!
//! None of this touches a draw: the same uniforms are consumed in the same
//! order and mapped to the same values as by the binary searches and
//! comparison sort they replaced. `tests/trace_digest.rs` pins digests of
//! four whole traces computed before the replacement, and the `reference`
//! tests of [`arrivals`] and [`popularity`] hold the old and new samplers
//! side by side, RNG state included.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod popularity;
pub mod qcgen;
pub mod stats;
pub mod stockgen;
pub mod trace;

pub use qcgen::{QcPreset, QcShape};
pub use stats::TraceStats;
pub use stockgen::StockWorkloadConfig;
pub use trace::Trace;
