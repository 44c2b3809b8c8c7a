//! # Experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and
//! figure of the paper (see DESIGN.md for the experiment index), plus the
//! Criterion micro-benchmarks under `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod parallel;
pub mod perf;
pub mod tracectx;

pub use harness::{paper_trace, run_policy, run_policy_with, Policy};
pub use parallel::jobs;
