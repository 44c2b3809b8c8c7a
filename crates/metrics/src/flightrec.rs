//! The flight recorder: a black box for crash post-mortems.
//!
//! A chaos failure in a replicated engine is only debuggable if the
//! moments *before* the fault survive it. [`FlightRecorder`] keeps a
//! fixed-capacity ring of the most recent [`TraceEvent`]s plus a set of
//! 1-second timeseries — queue depth, ρ, replica lag, group-commit batch
//! size, profit rate — and serialises both as JSON Lines on demand. The
//! engine supervisor flushes the recorder to
//! `<dir>/flightrec-<ts>.jsonl` whenever the scheduler panics or the
//! engine poisons, so every fail-stop ships its own post-mortem.
//!
//! It is the engine's only event recorder: at
//! [`crate::TraceLevel::Full`] its ring is the decision ring, and below
//! `Full` there is no recorder at all.

use crate::timeseries::BinnedSeries;
use crate::trace::{TraceEvent, TraceRing};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Timeseries bin width: 1 second, in µs.
const DEFAULT_TIMESERIES_RESOLUTION_US: u64 = 1_000_000;

/// The timeseries channels a [`FlightRecorder`] samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Admitted-but-unexecuted transactions (queries + updates).
    QueueDepth,
    /// The scheduler's current query-class bias ρ.
    Rho,
    /// Per-peer replication lag in WAL frames (primary LSN − applied).
    ReplicaLagFrames,
    /// Per-peer apply latency in µs (ship-to-ack round trip).
    ReplicaLagMicros,
    /// Records per closed commit group.
    GroupCommitBatch,
    /// Profit earned, summed per bin (a rate once divided by the bin).
    ProfitRate,
}

/// Every channel, in the order they are serialised.
const ALL_SERIES: [SeriesKind; 6] = [
    SeriesKind::QueueDepth,
    SeriesKind::Rho,
    SeriesKind::ReplicaLagFrames,
    SeriesKind::ReplicaLagMicros,
    SeriesKind::GroupCommitBatch,
    SeriesKind::ProfitRate,
];

impl SeriesKind {
    /// Stable lowercase name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::QueueDepth => "queue_depth",
            SeriesKind::Rho => "rho",
            SeriesKind::ReplicaLagFrames => "replica_lag_frames",
            SeriesKind::ReplicaLagMicros => "replica_lag_micros",
            SeriesKind::GroupCommitBatch => "group_commit_batch",
            SeriesKind::ProfitRate => "profit_rate",
        }
    }

    /// Position in [`ALL_SERIES`] (the declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// The recorder itself: recent events + coarse timeseries.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: TraceRing,
    series: Vec<BinnedSeries>,
}

impl FlightRecorder {
    /// A recorder whose event ring holds `capacity` records.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: TraceRing::new(capacity),
            series: ALL_SERIES
                .iter()
                .map(|_| BinnedSeries::new(DEFAULT_TIMESERIES_RESOLUTION_US))
                .collect(),
        }
    }

    /// Records one event into the ring (overwrites the oldest when
    /// full).
    pub fn record_event(&mut self, at_us: u64, event: TraceEvent) {
        self.ring.push(at_us, event);
    }

    /// Adds one sample to a timeseries channel.
    pub fn sample(&mut self, kind: SeriesKind, at_us: u64, value: f64) {
        self.series[kind.index()].record(at_us, value);
    }

    /// The event ring: its records oldest first, and what overwrites
    /// dropped.
    pub fn events(&self) -> &TraceRing {
        &self.ring
    }

    /// One timeseries channel (1-second bins since t=0).
    pub fn series(&self, kind: SeriesKind) -> &BinnedSeries {
        &self.series[kind.index()]
    }

    /// Serialises the recorder as JSON Lines: one
    /// `{"rec":"event",...}` line per held event (oldest first, same
    /// schema as the trace ring), then one
    /// `{"rec":"series","name":...,"bin_us":...,"t_us":...,"mean":...,"count":...}`
    /// line per non-empty timeseries bin.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.ring.iter_ordered() {
            out.push_str("{\"rec\":\"event\",");
            let mut line = String::new();
            rec.write_json(&mut line);
            // Splice the event object's fields after the `rec` key.
            out.push_str(&line[1..]);
            out.push('\n');
        }
        for kind in ALL_SERIES {
            let s = &self.series[kind.index()];
            let means = s.means();
            for (bin, (&count, mean)) in s.counts().iter().zip(&means).enumerate() {
                if count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{{\"rec\":\"series\",\"name\":\"{}\",\"bin_us\":{},\"t_us\":{},\"mean\":{},\"count\":{}}}",
                    kind.as_str(),
                    s.bin_width(),
                    bin as u64 * s.bin_width(),
                    mean,
                    count
                );
            }
        }
        out
    }

    /// Writes the JSONL dump to `<dir>/flightrec-<ts>.jsonl`, creating
    /// the directory if needed, and returns the path. `ts` is a caller-
    /// supplied timestamp (the supervisor uses unix µs at flush time).
    pub fn write_dump(&self, dir: &Path, ts: u64) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flightrec-{ts}.jsonl"));
        std::fs::write(&path, self.to_jsonl())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceClass, TraceCtx};

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut rec = FlightRecorder::new(4);
        for id in 0..6u64 {
            rec.record_event(id * 10, TraceEvent::UpdateDrop { id });
        }
        assert_eq!(rec.events().len(), 4);
        assert_eq!(rec.events().dropped(), 2);
        let ids: Vec<u64> = rec
            .events()
            .iter_ordered()
            .map(|r| match r.event {
                TraceEvent::UpdateDrop { id } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, [2, 3, 4, 5]);
    }

    #[test]
    fn series_bin_at_configured_resolution() {
        let mut rec = FlightRecorder::new(4);
        rec.sample(SeriesKind::Rho, 100_000, 0.5);
        rec.sample(SeriesKind::Rho, 900_000, 0.7);
        rec.sample(SeriesKind::Rho, 1_500_000, 0.9);
        let s = rec.series(SeriesKind::Rho);
        assert_eq!(s.bin_width(), DEFAULT_TIMESERIES_RESOLUTION_US);
        assert_eq!(s.counts(), &[2, 1]);
        assert!((s.means()[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn jsonl_mixes_events_and_series_lines() {
        let mut rec = FlightRecorder::new(4);
        rec.record_event(
            7,
            TraceEvent::Ingest {
                ctx: TraceCtx::root(99),
                class: TraceClass::Update,
                id: 1,
            },
        );
        rec.sample(SeriesKind::QueueDepth, 100, 3.0);
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"rec\":\"event\",\"seq\":0,\"at_us\":7,\"event\":\"ingest\",\"trace_id\":99,\"span\":1,\"parent\":0,\"class\":\"update\",\"id\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"rec\":\"series\",\"name\":\"queue_depth\",\"bin_us\":1000000,\"t_us\":0,\"mean\":3,\"count\":1}"
        );
    }

    #[test]
    fn dump_writes_a_parseable_file() {
        let dir = std::env::temp_dir().join(format!(
            "quts-flightrec-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rec = FlightRecorder::new(4);
        rec.record_event(1, TraceEvent::UpdateDrop { id: 5 });
        rec.sample(SeriesKind::GroupCommitBatch, 2000, 8.0);
        let path = rec.write_dump(&dir, 123).expect("dump");
        assert_eq!(path.file_name().unwrap(), "flightrec-123.jsonl");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, rec.to_jsonl());
        for line in text.lines() {
            assert!(
                line.starts_with("{\"rec\":\"") && line.ends_with('}'),
                "{line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_channel_has_a_distinct_stable_name() {
        let names: std::collections::HashSet<&str> =
            ALL_SERIES.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), ALL_SERIES.len());
        for (i, kind) in ALL_SERIES.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?} out of order");
        }
    }
}
