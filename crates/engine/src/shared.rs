//! What one engine shares between its scheduler thread, its supervisor
//! and every client handle — declared once, held behind one `Arc`.
//!
//! Everything here outlives a scheduler incarnation: the supervisor
//! builds a fresh [`Runtime`](crate::runtime) after a panic, but the
//! stats, the lifecycle state, the submission gate, the fault counters
//! and the trace sink carry on, which is what lets the flight recorder's
//! crash dump cover the moments *before* the fault.

use crate::config::EngineConfig;
use crate::fault::FaultState;
use crate::stats::LiveStats;
use crate::supervisor::STATE_RUNNING;
use parking_lot::{Mutex, RwLock};
use quts_metrics::{FlightRecorder, SeriesKind, TraceEvent, TraceRecord, TraceRing};
use std::sync::atomic::AtomicU8;
use std::time::Instant;

/// The shared half of an engine (see the module docs).
pub(crate) struct EngineShared {
    pub(crate) stats: Mutex<LiveStats>,
    /// Lifecycle state, one of `supervisor::STATE_*`.
    pub(crate) state: AtomicU8,
    /// Submission gate: every submit holds the read guard across its
    /// state-check + send, and the supervisor closes the write side
    /// before draining the inbox on poison/stop — so a message either
    /// reaches the scheduler or is drained *and counted* as shed; none
    /// can slip into the channel after the final drain and vanish.
    pub(crate) gate: RwLock<()>,
    pub(crate) faults: FaultState,
    pub(crate) trace: TraceSink,
    /// The engine's workload seed — every deterministic trace id
    /// (router roots, shipped frames) derives from it.
    pub(crate) seed: u64,
    /// Items in the engine's store (fixed for its lifetime).
    pub(crate) num_items: usize,
    /// Wall-clock zero for events recorded from outside the scheduler
    /// thread (the router, the failover controller); the scheduler's own
    /// clock has its own epoch.
    pub(crate) epoch: Instant,
}

impl EngineShared {
    /// The shared state of a fresh engine over `num_items` items,
    /// starting from the statistics `init` (non-zero after a recovery).
    pub(crate) fn new(config: &EngineConfig, num_items: usize, init: LiveStats) -> EngineShared {
        EngineShared {
            stats: Mutex::new(init),
            state: AtomicU8::new(STATE_RUNNING),
            gate: RwLock::new(()),
            faults: FaultState::default(),
            trace: TraceSink::new(config),
            seed: config.seed,
            num_items,
            epoch: Instant::now(),
        }
    }
}

/// Where an engine's trace events and timeseries samples go: the
/// decision ring (trace level `Full`) and the crash flight recorder (its
/// own opt-in, any trace level), either, both or neither. The scheduler,
/// the read router, the failover controller and the WAL shipper all
/// record through this one value.
pub(crate) struct TraceSink {
    ring: Option<Mutex<TraceRing>>,
    flight: Option<Mutex<FlightRecorder>>,
}

impl TraceSink {
    fn new(config: &EngineConfig) -> TraceSink {
        let trace = &config.trace;
        TraceSink {
            ring: trace
                .level
                .events()
                .then(|| Mutex::new(TraceRing::new(trace.ring_capacity))),
            flight: config
                .flight
                .as_ref()
                .map(|fc| Mutex::new(FlightRecorder::new(fc))),
        }
    }

    /// True when anything records events. Callers gate event
    /// construction — and the clock read for its timestamp — on this, so
    /// `TraceLevel::Off` without a flight recorder costs two compares.
    pub(crate) fn is_on(&self) -> bool {
        self.ring.is_some() || self.flight.is_some()
    }

    /// Records one event at `at_us` on the caller's timeline: into the
    /// ring, and mirrored into the flight recorder.
    pub(crate) fn record(&self, at_us: u64, event: TraceEvent) {
        if let Some(ring) = &self.ring {
            ring.lock().push(at_us, event);
        }
        if let Some(flight) = &self.flight {
            flight.lock().record_event(at_us, event);
        }
    }

    /// Adds one sample to a flight-recorder timeseries, when armed.
    pub(crate) fn sample(&self, kind: SeriesKind, at_us: u64, value: f64) {
        if let Some(flight) = &self.flight {
            flight.lock().sample(kind, at_us, value);
        }
    }

    /// The decision ring, oldest first; `None` below level `Full`.
    pub(crate) fn trace_snapshot(&self) -> Option<Vec<TraceRecord>> {
        self.ring
            .as_ref()
            .map(|r| r.lock().iter_ordered().copied().collect())
    }

    /// Decisions lost to ring overwrites; `None` below level `Full`.
    pub(crate) fn trace_dropped(&self) -> Option<u64> {
        self.ring.as_ref().map(|r| r.lock().dropped())
    }

    /// The flight recorder as JSON Lines; `None` when not armed.
    pub(crate) fn flight_snapshot(&self) -> Option<String> {
        self.flight.as_ref().map(|f| f.lock().to_jsonl())
    }

    /// Dumps the flight recorder to `<dir>/flightrec-<unix µs>.jsonl`.
    /// Dump failures are swallowed: the post-mortem must never block the
    /// restart/poison path it documents.
    pub(crate) fn dump_flight(&self) {
        let Some(flight) = &self.flight else { return };
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let _ = flight.lock().write_dump(ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quts_metrics::{FlightRecorderConfig, TraceConfig};

    #[test]
    fn one_record_lands_once_in_the_ring_and_once_in_the_flight_recorder() {
        let armed = EngineConfig::default()
            .with_trace(TraceConfig::full())
            .with_flight_recorder(FlightRecorderConfig::new(std::env::temp_dir()));
        let sink = EngineShared::new(&armed, 1, LiveStats::default()).trace;
        assert!(sink.is_on());
        let event = TraceEvent::UpdateDrop { id: 7 };
        sink.record(1234, event);
        let ring = sink.trace_snapshot().expect("level Full has a ring");
        let flight = sink.flight.as_ref().expect("armed").lock().events();
        for records in [&ring, &flight] {
            assert_eq!(records.len(), 1);
            assert_eq!((records[0].at_us, records[0].event), (1234, event));
        }
        assert_eq!(sink.trace_dropped(), Some(0));
        let dump = sink.flight_snapshot().expect("armed");
        assert_eq!(dump.matches("\"at_us\":1234").count(), 1, "{dump}");

        let off = EngineShared::new(&EngineConfig::default(), 1, LiveStats::default()).trace;
        assert!(!off.is_on());
        off.record(1, event); // nowhere to land, nothing to lock
        assert!(off.trace_snapshot().is_none());
        assert!(off.trace_dropped().is_none());
        assert!(off.flight_snapshot().is_none());
    }
}
