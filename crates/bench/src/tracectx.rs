//! Process-global decision-trace context for the experiment harness.
//!
//! `run_all --trace-dir DIR` arms this registry; from then on every
//! simulation run through [`crate::harness::run_policy_with`] executes
//! with [`TraceLevel::Full`](quts_sim::TraceLevel) and its decision log
//! is written to `DIR/<experiment>/NNN_<policy>.jsonl`, where `NNN` is
//! the run's ordinal within the experiment. File numbering follows
//! execution order, so tracing forces the sequential (`jobs = 1`) path —
//! the simulations themselves are deterministic either way.

use quts_sim::{RunReport, SimConfig, TraceConfig};
use std::path::PathBuf;
use std::sync::Mutex;

struct Ctx {
    dir: PathBuf,
    experiment: String,
    next_run: u32,
}

static CTX: Mutex<Option<Ctx>> = Mutex::new(None);

/// Arms decision tracing: subsequent harness runs write JSONL under
/// `dir`. Call [`set_experiment`] before each experiment to pick the
/// subdirectory.
pub fn enable(dir: PathBuf) {
    *CTX.lock().expect("trace context poisoned") = Some(Ctx {
        dir,
        experiment: "unnamed".into(),
        next_run: 0,
    });
}

/// Whether tracing is armed.
pub fn enabled() -> bool {
    CTX.lock().expect("trace context poisoned").is_some()
}

/// Names the experiment subdirectory for subsequent runs and restarts
/// the per-experiment run numbering.
pub(crate) fn set_experiment(name: &str) {
    if let Some(ctx) = CTX.lock().expect("trace context poisoned").as_mut() {
        ctx.experiment = sanitize(name);
        ctx.next_run = 0;
    }
}

/// Raises `sim` to full tracing when armed; returns whether it did.
pub fn apply(sim: &mut SimConfig) -> bool {
    if enabled() {
        sim.trace = TraceConfig::full();
        true
    } else {
        false
    }
}

/// Writes one finished run's decision log (no-op when disarmed or the
/// report carries no trace). Write failures are reported to stderr, not
/// fatal — a broken disk must not take the experiment down.
pub fn write(report: &RunReport) {
    let Some(jsonl) = report.trace_jsonl() else {
        return;
    };
    let mut guard = CTX.lock().expect("trace context poisoned");
    let Some(ctx) = guard.as_mut() else {
        return;
    };
    let run = ctx.next_run;
    ctx.next_run += 1;
    let dir = ctx.dir.join(&ctx.experiment);
    let path = dir.join(format!("{run:03}_{}.jsonl", sanitize(report.scheduler)));
    drop(guard); // don't hold the lock across filesystem calls
    let result = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, jsonl));
    if let Err(e) = result {
        eprintln!("trace-dir: could not write {}: {e}", path.display());
    }
}

/// Lowercases and maps non-alphanumerics to `_` so scheduler and
/// experiment names are safe as path components.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_flattens_separators() {
        assert_eq!(sanitize("FIFO-UH"), "fifo_uh");
        assert_eq!(sanitize("Greedy"), "greedy");
        assert_eq!(sanitize("fig7/8 spectrum"), "fig7_8_spectrum");
    }

    #[test]
    fn apply_is_inert_when_disarmed() {
        // Tests share the process-global context; only exercise the
        // disarmed path here (run_all exercises the armed one).
        if !enabled() {
            let mut sim = SimConfig::default();
            assert!(!apply(&mut sim));
            assert!(!sim.trace.level.events());
        }
    }
}
