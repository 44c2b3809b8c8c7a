//! What one engine shares between its scheduler thread, its supervisor
//! and every client handle — declared once, held behind one `Arc`.
//!
//! Everything here outlives a scheduler incarnation: the supervisor
//! builds a fresh [`Runtime`](crate::runtime) after a panic, but the
//! stats, the lifecycle state (which gates submissions), the fault
//! counters and the trace sink carry on, which is what lets the flight
//! recorder's crash dump cover the moments *before* the fault.

use crate::config::EngineConfig;
use crate::fault::FaultState;
use crate::stats::LiveStats;
use crate::supervisor::EngineState;
use parking_lot::{Mutex, RwLock};
use quts_metrics::{FlightRecorder, SeriesKind, TraceEvent, TraceRecord};
use std::path::PathBuf;
use std::sync::Condvar;
use std::time::Instant;

/// The shared half of an engine (see the module docs).
pub(crate) struct EngineShared {
    pub(crate) stats: Mutex<LiveStats>,
    /// Lifecycle state, which also gates submissions: every submit
    /// holds the read guard across its state check + send, and the
    /// supervisor writes the terminal state and drains the inbox under
    /// the write guard — so a message either reaches the scheduler or is
    /// drained *and counted* as shed; none can slip into the channel
    /// after the final drain and vanish. Lock order: this, then `stats`.
    pub(crate) lifecycle: RwLock<EngineState>,
    pub(crate) faults: FaultState,
    pub(crate) trace: TraceSink,
    /// The engine's workload seed — every deterministic trace id
    /// (router roots, shipped frames) derives from it.
    pub(crate) seed: u64,
    /// Items in the engine's store (fixed for its lifetime).
    pub(crate) num_items: usize,
    /// The durability directory the WAL lives in; `None` for an
    /// in-memory engine. The WAL shipper serves this directory.
    pub(crate) durable_dir: Option<PathBuf>,
    /// The WAL's last appended LSN, published once per commit group:
    /// what a WAL shipper sleeps on between batches.
    pub(crate) log_head: LogHead,
    /// Wall-clock zero for events recorded from outside the scheduler
    /// thread (the router, the failover controller, the WAL shipper);
    /// the scheduler's own clock has its own epoch.
    pub(crate) epoch: Instant,
}

impl EngineShared {
    /// The shared state of a fresh engine over `num_items` items,
    /// starting from the statistics `init` (non-zero after a recovery).
    pub(crate) fn new(config: &EngineConfig, num_items: usize, init: LiveStats) -> EngineShared {
        EngineShared {
            stats: Mutex::new(init),
            lifecycle: RwLock::new(EngineState::Running),
            faults: FaultState::default(),
            trace: TraceSink::new(config),
            seed: config.quts.seed,
            num_items,
            durable_dir: config.durability.as_ref().map(|d| d.dir.clone()),
            log_head: LogHead::default(),
            epoch: Instant::now(),
        }
    }

    /// Records one event on behalf of a component outside the scheduler
    /// thread, stamped on [`EngineShared::epoch`]. The clock is read only
    /// when the engine traces.
    pub(crate) fn trace_push(&self, event: TraceEvent) {
        if self.trace.is_on() {
            self.trace.record(self.epoch_us(), event);
        }
    }

    /// Adds one timeseries sample on behalf of a component outside the
    /// scheduler thread, stamped like [`EngineShared::trace_push`].
    pub(crate) fn trace_sample(&self, kind: SeriesKind, value: f64) {
        if self.trace.is_on() {
            self.trace.sample(kind, self.epoch_us(), value);
        }
    }

    fn epoch_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// The newest LSN a commit group appended, behind a condvar. A waiter
/// wakes when the value *changes*, not when it reaches some LSN: under a
/// lazy fsync policy a committed frame can sit in the WAL's user-space
/// buffer where a tailer cannot see it yet, and an LSN condition would
/// spin until it lands. (The vendored `parking_lot` has no condvar.)
#[derive(Default)]
pub(crate) struct LogHead {
    lsn: std::sync::Mutex<u64>,
    moved: Condvar,
}

impl LogHead {
    /// Sets the head and wakes every waiter.
    pub(crate) fn publish(&self, lsn: u64) {
        *self.lsn.lock().expect("log head lock") = lsn;
        self.moved.notify_all();
    }

    /// Wakes every waiter so it re-checks its `done` condition. Call it
    /// after making that condition true: the lock taken here orders the
    /// notify after a waiter's check, so the wake cannot be missed.
    pub(crate) fn wake(&self) {
        let _held = self.lsn.lock().expect("log head lock");
        self.moved.notify_all();
    }

    /// Blocks until the head differs from `seen`, `done()` holds, or
    /// `deadline` passes, whichever comes first; returns the head.
    pub(crate) fn wait_past(&self, seen: u64, deadline: Instant, done: impl Fn() -> bool) -> u64 {
        let held = self.lsn.lock().expect("log head lock");
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (lsn, _) = self
            .moved
            .wait_timeout_while(held, timeout, |lsn| *lsn == seen && !done())
            .expect("log head lock");
        *lsn
    }
}

/// Where an engine's trace events and timeseries samples go: one
/// [`FlightRecorder`], built only at trace level `Full` and sized by
/// `TraceConfig::ring_capacity`. Its ring is the decision ring
/// ([`TraceSink::trace_snapshot`]), the `FLIGHT` verb serialises it with
/// its series, and the supervisor dumps it into the configured
/// directory on a crash. The scheduler, the read router, the failover
/// controller and the WAL shipper all record through this one value.
pub(crate) struct TraceSink {
    recorder: Option<Mutex<FlightRecorder>>,
    /// Where a crash dump goes; `None` writes no dump.
    dump_dir: Option<PathBuf>,
}

impl TraceSink {
    fn new(config: &EngineConfig) -> TraceSink {
        let trace = &config.trace;
        TraceSink {
            recorder: trace
                .level
                .events()
                .then(|| Mutex::new(FlightRecorder::new(trace.ring_capacity))),
            dump_dir: config.flight.clone(),
        }
    }

    /// True when the recorder exists (trace level `Full`). Callers gate
    /// event construction — and the clock read for its timestamp — on
    /// this, so below `Full` tracing costs one compare.
    pub(crate) fn is_on(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records one event at `at_us` on the caller's timeline.
    pub(crate) fn record(&self, at_us: u64, event: TraceEvent) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().record_event(at_us, event);
        }
    }

    /// Adds one sample to a recorder timeseries.
    pub(crate) fn sample(&self, kind: SeriesKind, at_us: u64, value: f64) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().sample(kind, at_us, value);
        }
    }

    /// The decision ring, oldest first; `None` below level `Full`.
    pub(crate) fn trace_snapshot(&self) -> Option<Vec<TraceRecord>> {
        self.recorder
            .as_ref()
            .map(|r| r.lock().events().iter_ordered().copied().collect())
    }

    /// Decisions lost to ring overwrites; `None` below level `Full`.
    pub(crate) fn trace_dropped(&self) -> Option<u64> {
        self.recorder.as_ref().map(|r| r.lock().events().dropped())
    }

    /// The recorder as JSON Lines; `None` below level `Full`.
    pub(crate) fn flight_snapshot(&self) -> Option<String> {
        self.recorder.as_ref().map(|r| r.lock().to_jsonl())
    }

    /// Dumps the recorder to `<dir>/flightrec-<unix µs>.jsonl` when both
    /// exist. Dump failures are swallowed: the post-mortem must never
    /// block the restart/poison path it documents.
    pub(crate) fn dump_flight(&self) {
        let (Some(recorder), Some(dir)) = (&self.recorder, &self.dump_dir) else {
            return;
        };
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let _ = recorder.lock().write_dump(dir, ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quts_metrics::TraceConfig;
    use std::time::Duration;

    /// The `{"rec":"event",...}` lines of a flight snapshot, as the
    /// trace ring's own JSON for the same record would read.
    fn event_lines(jsonl: &str) -> Vec<String> {
        jsonl
            .lines()
            .filter_map(|l| l.strip_prefix("{\"rec\":\"event\","))
            .map(|rest| format!("{{{rest}"))
            .collect()
    }

    #[test]
    fn one_record_lands_once_in_the_one_recorder() {
        let dir = std::env::temp_dir();
        let full = EngineConfig::default()
            .with_trace(TraceConfig::full())
            .with_flight_recorder(&dir);
        let sink = EngineShared::new(&full, 1, LiveStats::default()).trace;
        assert!(sink.is_on());
        let event = TraceEvent::UpdateDrop { id: 7 };
        sink.record(1234, event);
        sink.record(1300, TraceEvent::UpdateInvalidate { id: 8 });
        sink.sample(SeriesKind::QueueDepth, 1234, 2.0);
        let ring = sink.trace_snapshot().expect("level Full has a recorder");
        assert_eq!(ring.len(), 2);
        assert_eq!(
            (ring[0].seq, ring[0].at_us, ring[0].event),
            (0, 1234, event)
        );
        assert_eq!(sink.trace_dropped(), Some(0));
        // The FLIGHT lines are the very same records: same seq, same
        // timestamp, same event, each once.
        let dump = sink.flight_snapshot().expect("level Full has a recorder");
        let mut ring_lines = Vec::new();
        for rec in &ring {
            let mut line = String::new();
            rec.write_json(&mut line);
            ring_lines.push(line);
        }
        assert_eq!(event_lines(&dump), ring_lines, "{dump}");
        assert_eq!(dump.matches("\"rec\":\"series\"").count(), 1, "{dump}");

        // Below Full there is no recorder, dump directory or not.
        let spans = EngineConfig::default()
            .with_trace(TraceConfig::spans())
            .with_flight_recorder(&dir);
        let off = EngineShared::new(&spans, 1, LiveStats::default()).trace;
        assert!(!off.is_on());
        off.record(1, event); // nowhere to land, nothing to lock
        assert!(off.trace_snapshot().is_none());
        assert!(off.trace_dropped().is_none());
        assert!(off.flight_snapshot().is_none());
    }

    #[test]
    fn a_log_head_waiter_wakes_on_a_publish_and_else_at_its_deadline() {
        let head = LogHead::default();
        let never = || false;
        // Nothing published: the wait ends at its deadline, not before.
        let start = Instant::now();
        assert_eq!(
            head.wait_past(0, start + Duration::from_millis(30), never),
            0
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        // A publish from another thread ends a wait long before its
        // deadline.
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                head.publish(7);
            });
            assert_eq!(head.wait_past(0, start + Duration::from_secs(30), never), 7);
        });
        assert!(start.elapsed() < Duration::from_secs(10));
        // A head already past `seen` does not wait at all; neither does
        // a waiter whose `done` holds.
        let start = Instant::now();
        assert_eq!(head.wait_past(0, start + Duration::from_secs(30), never), 7);
        assert_eq!(
            head.wait_past(7, start + Duration::from_secs(30), || true),
            7
        );
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
