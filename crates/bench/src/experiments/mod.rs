//! The paper's experiments as library functions.
//!
//! Each experiment takes the trace `scale`, a parallel `jobs` count for
//! its independent simulation grid, and the sink it renders into. The
//! thin binaries under `src/bin/` wire these to the command line;
//! `run_all` runs the whole suite in-process through [`run_suite`], whose
//! output at full scale is archived as `results/run_all_scale1.txt`.
//!
//! Parallelism never changes output: grids run through
//! [`crate::parallel::run_many`], which returns results in input order,
//! and all rendering happens afterwards on the calling thread.

pub mod ablations;
pub mod fig10_sensitivity;
pub mod fig1_tradeoff;
pub mod fig5_trace;
pub mod fig6_step_linear;
pub mod fig7_fig8_spectrum;
pub mod fig9_adaptability;
pub mod table3_workload;

use crate::perf::{self, ExperimentPerf};
use std::io::{self, Write};
use std::time::Instant;

/// The uniform experiment entry point: `(scale, jobs, sink)`.
type ExperimentFn = fn(u32, usize, &mut dyn Write) -> io::Result<()>;

/// Every experiment `run_all` executes, in paper order.
pub const ALL: [(&str, ExperimentFn); 8] = [
    ("table3_workload", table3_workload::run),
    ("fig5_trace", fig5_trace::run),
    ("fig1_tradeoff", fig1_tradeoff::run),
    ("fig6_step_linear", fig6_step_linear::run),
    ("fig7_fig8_spectrum", fig7_fig8_spectrum::run),
    ("fig9_adaptability", fig9_adaptability::run),
    ("fig10_sensitivity", fig10_sensitivity::run),
    ("ablations", ablations::run),
];

/// What [`run_suite`] measured and what went wrong.
#[derive(Debug, Default)]
pub struct SuiteReport {
    /// Timing of every experiment that completed, in [`ALL`] order.
    pub perfs: Vec<ExperimentPerf>,
    /// Experiments that panicked, with the panic message.
    pub failed: Vec<(&'static str, String)>,
}

/// Runs [`ALL`] into `out`: a `#` rule, the experiment, a blank line,
/// and a closing `all experiments completed` when none failed. These
/// are the bytes `run_all` prints on stdout and `results/` archives;
/// they depend on `scale` only, never on `jobs` or the clock.
///
/// A panicking experiment is caught and reported in
/// [`SuiteReport::failed`] so it cannot take the rest of the suite down.
pub fn run_suite(scale: u32, jobs: usize, out: &mut dyn Write) -> io::Result<SuiteReport> {
    let mut report = SuiteReport::default();
    perf::drain(); // discard records from before the timed suite
    for (name, exp) in ALL {
        writeln!(
            out,
            "################################################################"
        )?;
        crate::tracectx::set_experiment(name);
        let started = Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp(scale, jobs, &mut *out)));
        let wall = started.elapsed();
        let sims = perf::drain();
        match outcome {
            Ok(written) => {
                written?;
                report.perfs.push(ExperimentPerf::new(name, wall, &sims));
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into());
                report.failed.push((name, msg));
            }
        }
        writeln!(out)?;
    }
    if report.failed.is_empty() {
        writeln!(out, "all experiments completed")?;
    }
    Ok(report)
}
