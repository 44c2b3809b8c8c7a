//! Experiment plumbing: build a calibrated trace, run it under a policy,
//! collect the report.

use quts_sched::{DualQueue, GlobalFifo, GlobalGreedy, Quts, QutsConfig};
use quts_sim::{RunReport, Scheduler, SimConfig, Simulator};
use quts_workload::{StockWorkloadConfig, Trace};

/// The scheduling policies the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Single-queue non-preemptive FIFO.
    Fifo,
    /// Naive dual queue, updates high, FIFO queries (Figure 1).
    FifoUh,
    /// Naive dual queue, queries high, FIFO queries (Figure 1).
    FifoQh,
    /// Update-High with VRD queries (Section 3.2).
    Uh,
    /// Query-High with VRD queries (Section 3.2).
    Qh,
    /// The paper's QUTS with the given configuration.
    Quts(QutsConfig),
    /// Single-priority-queue strawman with a fixed query/update exchange
    /// rate (Section 3.1's impossibility argument).
    Greedy {
        /// Update priority on the query-VRD scale.
        exchange_rate: f64,
    },
}

impl Policy {
    /// QUTS with paper-default parameters.
    pub fn quts_default() -> Policy {
        Policy::Quts(QutsConfig::default())
    }

    /// The four policies of the main comparison (Figures 6–8).
    pub fn comparison_set() -> [Policy; 4] {
        [Policy::Fifo, Policy::Uh, Policy::Qh, Policy::quts_default()]
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            Policy::Fifo => Box::new(GlobalFifo::new()),
            Policy::FifoUh => Box::new(DualQueue::fifo_uh()),
            Policy::FifoQh => Box::new(DualQueue::fifo_qh()),
            Policy::Uh => Box::new(DualQueue::uh()),
            Policy::Qh => Box::new(DualQueue::qh()),
            Policy::Quts(cfg) => Box::new(Quts::new(*cfg)),
            Policy::Greedy { exchange_rate } => Box::new(GlobalGreedy::new(*exchange_rate)),
        }
    }
}

/// The calibrated paper workload shrunk by `scale` (1 = the full
/// 30-minute trace; 30 = a one-minute equivalent with identical rates).
pub fn paper_trace(scale: u32, seed: u64) -> Trace {
    StockWorkloadConfig {
        seed,
        ..StockWorkloadConfig::default().scaled(scale)
    }
    .generate()
}

/// Runs `trace` under `policy` with default simulator settings.
pub fn run_policy(trace: &Trace, policy: Policy) -> RunReport {
    run_policy_with(trace, policy, SimConfig::default())
}

/// Runs `trace` under `policy` with explicit simulator settings
/// (`num_stocks` is filled in from the trace).
///
/// Every run is timed and recorded in the [`crate::perf`] registry, which
/// `run_all` aggregates into its stderr timing table.
pub fn run_policy_with(trace: &Trace, policy: Policy, mut sim: SimConfig) -> RunReport {
    sim.num_stocks = trace.num_stocks;
    let tracing = crate::tracectx::apply(&mut sim);
    let events = (trace.queries.len() + trace.updates.len()) as u64;
    let started = std::time::Instant::now();
    let report = Simulator::new(
        sim,
        trace.queries.clone(),
        trace.updates.clone(),
        policy.build(),
    )
    .run();
    crate::perf::record(crate::perf::SimRun {
        wall: started.elapsed(),
        events,
        dispatches: report.dispatches,
    });
    if tracing {
        crate::tracectx::write(&report);
    }
    report
}

/// The trace scale experiments run at: `--scale N` on the command line or
/// the `QUTS_SCALE` environment variable; 1 (the paper's full 30-minute
/// workload) by default. `N` divides the trace length and transaction
/// counts while keeping rates — and therefore every scheduling effect —
/// intact.
///
/// A scale that is present but not a positive integer (`--scale 12O`,
/// `--scale 0`, a trailing `--scale`) is an error: the message goes to
/// stderr and the process exits with status 2, rather than silently
/// running the full 30-minute suite.
pub fn experiment_scale() -> u32 {
    let args: Vec<String> = std::env::args().collect();
    let flag = args
        .iter()
        .position(|a| a == "--scale")
        .map(|i| args.get(i + 1).map_or("", String::as_str));
    let env = std::env::var("QUTS_SCALE").ok();
    parse_scale(flag, env.as_deref()).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Resolves the scale from the value following `--scale` (if the flag
/// was given) and `QUTS_SCALE` (if set); the flag wins. Absent ⇒ 1,
/// present but not a positive integer ⇒ `Err`.
fn parse_scale(flag: Option<&str>, env: Option<&str>) -> Result<u32, String> {
    let (source, raw) = match (flag, env) {
        (Some(v), _) => ("--scale", v),
        (None, Some(v)) => ("QUTS_SCALE", v),
        (None, None) => return Ok(1),
    };
    match raw.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "invalid {source} value {raw:?}: expected a positive integer"
        )),
    }
}

/// Standard experiment banner — what is being reproduced and at what
/// scale — into a caller-chosen `Write`, so `run_all` can run the
/// experiments in-process.
pub(crate) fn banner_to(
    out: &mut dyn std::io::Write,
    experiment: &str,
    scale: u32,
) -> std::io::Result<()> {
    writeln!(out, "== {experiment} ==")?;
    if scale == 1 {
        writeln!(
            out,
            "workload: full paper scale (30 min, 82,129 queries, 496,892 updates)"
        )?;
    } else {
        writeln!(
            out,
            "workload: paper trace scaled down by {scale}x (rates preserved)"
        )?;
    }
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        // No --scale argument and (in the test harness) no QUTS_SCALE.
        if std::env::var("QUTS_SCALE").is_err() {
            assert_eq!(experiment_scale(), 1);
        }
    }

    #[test]
    fn absent_scale_is_one_and_the_flag_beats_the_environment() {
        assert_eq!(parse_scale(None, None), Ok(1));
        assert_eq!(parse_scale(None, Some("30")), Ok(30));
        assert_eq!(parse_scale(Some("120"), Some("30")), Ok(120));
    }

    #[test]
    fn present_but_invalid_scale_is_an_error() {
        for bad in ["12O", "0", "", "-3", "1.5"] {
            let err = parse_scale(Some(bad), None).expect_err(bad);
            assert!(err.contains("--scale") && err.contains(bad), "{err}");
            let err = parse_scale(None, Some(bad)).expect_err(bad);
            assert!(err.contains("QUTS_SCALE"), "{err}");
        }
        // A bad flag is not rescued by a good environment value.
        assert!(parse_scale(Some("12O"), Some("30")).is_err());
    }

    #[test]
    fn policies_run_on_a_tiny_trace() {
        let trace = paper_trace(600, 1); // ~3 s, ~136 queries
        for policy in [
            Policy::Fifo,
            Policy::FifoUh,
            Policy::FifoQh,
            Policy::Uh,
            Policy::Qh,
            Policy::quts_default(),
        ] {
            let r = run_policy(&trace, policy);
            assert_eq!(
                r.committed + r.expired,
                trace.queries.len() as u64,
                "{policy:?} lost queries"
            );
            assert!(r.total_pct() <= 1.0 + 1e-9);
        }
    }
}
