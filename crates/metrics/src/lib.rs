//! # Measurement substrate
//!
//! Small, dependency-free building blocks used by the simulator, the live
//! engine and the experiment harness:
//!
//! * [`welford`] — numerically stable online mean / variance / extrema,
//! * [`histogram`] — log-bucketed latency histograms with percentiles,
//! * [`timeseries`] — fixed-width time bins with moving-window smoothing
//!   (the 5-second filter of the paper's Figure 9),
//! * [`profit`] — gained-vs-maximum profit tracked over time bins,
//! * [`table`] — plain-text table rendering for experiment output,
//! * [`trace`] — typed scheduler-decision events in a fixed ring with
//!   JSONL export,
//! * [`span`] — query-lifecycle spans (queue-wait / service /
//!   staleness) over histograms,
//! * [`exposition`] — Prometheus-style text exposition of a table of
//!   metric families,
//! * [`flightrec`] — the engine's event recorder (recent-event ring +
//!   coarse timeseries), flushed to disk on panic/poison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exposition;
pub mod flightrec;
pub mod histogram;
pub mod profit;
pub mod span;
pub mod table;
pub mod timeseries;
pub mod trace;
pub mod welford;

pub use flightrec::{FlightRecorder, SeriesKind};
pub use histogram::LogHistogram;
pub use profit::ProfitSeries;
pub use span::LifecycleSpans;
pub use table::TextTable;
pub use timeseries::BinnedSeries;
pub use trace::{
    query_trace_id, records_to_jsonl, route_trace_id, update_trace_id, FailoverStep, RouteTarget,
    SchedDecision, TraceClass, TraceConfig, TraceCtx, TraceEvent, TraceLevel, TraceRecord,
    TraceRing, SPAN_APPLY, SPAN_COMMIT_ACK, SPAN_INGEST, SPAN_SHIP,
};
pub use welford::OnlineStats;
