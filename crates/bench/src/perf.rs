//! Per-simulation performance accounting behind the experiment harness.
//!
//! [`crate::harness::run_policy_with`] records one [`SimRun`] — wall
//! clock, trace events, CPU dispatches — for every simulation it
//! executes, into a process-global registry that is safe to feed from
//! [`crate::parallel::run_many`] workers. `run_all` drains the registry
//! around each experiment and aggregates the records into the
//! per-experiment timing table it prints on stderr.

use std::sync::Mutex;
use std::time::Duration;

/// One timed simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimRun {
    /// Wall-clock time of `Simulator::run`.
    pub wall: Duration,
    /// Trace events processed (query + update arrivals).
    pub events: u64,
    /// CPU dispatches performed by the engine.
    pub dispatches: u64,
}

static RECORDS: Mutex<Vec<SimRun>> = Mutex::new(Vec::new());

/// Records a finished simulation (called from any thread).
pub fn record(run: SimRun) {
    RECORDS.lock().expect("perf registry poisoned").push(run);
}

/// Removes and returns every record accumulated since the last drain.
pub fn drain() -> Vec<SimRun> {
    std::mem::take(&mut *RECORDS.lock().expect("perf registry poisoned"))
}

/// Aggregated performance of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentPerf {
    /// Experiment name (binary name).
    pub name: &'static str,
    /// End-to-end wall time of the experiment, including trace
    /// generation and rendering.
    pub wall: Duration,
    /// Number of simulations the experiment ran.
    pub sims: usize,
    /// Total trace events across those simulations.
    pub events: u64,
    /// Total CPU dispatches across those simulations.
    pub dispatches: u64,
    /// Summed per-simulation wall time (exceeds `wall` under parallelism).
    pub sim_wall: Duration,
}

impl ExperimentPerf {
    /// Aggregates the drained records of one experiment.
    pub fn new(name: &'static str, wall: Duration, sims: &[SimRun]) -> ExperimentPerf {
        ExperimentPerf {
            name,
            wall,
            sims: sims.len(),
            events: sims.iter().map(|s| s.events).sum(),
            dispatches: sims.iter().map(|s| s.dispatches).sum(),
            sim_wall: sims.iter().map(|s| s.wall).sum(),
        }
    }

    /// Trace events simulated per second of experiment wall time.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.events, self.wall)
    }

    /// CPU dispatches simulated per second of experiment wall time.
    pub fn dispatches_per_sec(&self) -> f64 {
        per_sec(self.dispatches, self.wall)
    }
}

/// `count / seconds`, zero when no time elapsed.
pub fn per_sec(count: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_empties_the_registry() {
        // The registry is shared across tests in this binary; all we can
        // assert is that our record shows up and a second drain without
        // records in between yields nothing of ours.
        record(SimRun {
            wall: Duration::from_millis(10),
            events: 100,
            dispatches: 50,
        });
        let drained = drain();
        assert!(drained
            .iter()
            .any(|r| r.events == 100 && r.dispatches == 50));
    }

    #[test]
    fn aggregation_sums_fields() {
        let runs = [
            SimRun {
                wall: Duration::from_millis(10),
                events: 100,
                dispatches: 60,
            },
            SimRun {
                wall: Duration::from_millis(30),
                events: 300,
                dispatches: 140,
            },
        ];
        let perf = ExperimentPerf::new("x", Duration::from_millis(20), &runs);
        assert_eq!(perf.sims, 2);
        assert_eq!(perf.events, 400);
        assert_eq!(perf.dispatches, 200);
        assert_eq!(perf.sim_wall, Duration::from_millis(40));
        assert!((perf.events_per_sec() - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn per_sec_handles_zero_duration() {
        assert_eq!(per_sec(100, Duration::ZERO), 0.0);
    }
}
