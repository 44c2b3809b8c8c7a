//! Runs every experiment in-process, in paper order — the one-shot
//! reproduction of the paper's whole evaluation section.
//!
//! stdout is the deterministic experiment output and nothing else:
//! `run_all --scale 1` regenerates `results/run_all_scale1.txt` byte for
//! byte, whatever `QUTS_JOBS` says, because grids return results in
//! input order. The per-experiment timing summary (wall time and
//! simulation throughput) goes to stderr; no file is written.

use quts_bench::experiments;
use quts_bench::perf::ExperimentPerf;
use quts_bench::tracectx;
use quts_metrics::TextTable;
use std::time::Duration;

fn main() {
    let scale = quts_bench::harness::experiment_scale();
    let args: Vec<String> = std::env::args().collect();
    let trace_dir = args
        .iter()
        .position(|a| a == "--trace-dir")
        .and_then(|i| args.get(i + 1).cloned());
    // Tracing numbers files in execution order, so it forces the
    // deterministic sequential path.
    let jobs = if trace_dir.is_some() {
        1
    } else {
        quts_bench::jobs()
    };
    if let Some(dir) = &trace_dir {
        tracectx::enable(dir.into());
        eprintln!("decision traces -> {dir} (jobs forced to 1)");
    }

    let report = experiments::run_suite(scale, jobs, &mut std::io::stdout().lock())
        .expect("write to stdout");

    eprintln!("timing (jobs={jobs}, scale={scale})");
    eprint!("{}", timing_table(&report.perfs).render());
    if !report.failed.is_empty() {
        for (name, msg) in &report.failed {
            eprintln!("experiment {name} failed: {msg}");
        }
        std::process::exit(1);
    }
}

fn timing_table(perfs: &[ExperimentPerf]) -> TextTable {
    let total = ExperimentPerf {
        name: "total",
        wall: perfs.iter().map(|p| p.wall).sum(),
        sims: perfs.iter().map(|p| p.sims).sum(),
        events: perfs.iter().map(|p| p.events).sum(),
        dispatches: perfs.iter().map(|p| p.dispatches).sum(),
        sim_wall: perfs.iter().map(|p| p.sim_wall).sum(),
    };
    let mut table = TextTable::new([
        "experiment",
        "wall ms",
        "sims",
        "events",
        "events/s",
        "dispatches/s",
        "sim wall ms",
    ]);
    let ms = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1000.0);
    for p in perfs.iter().chain([&total]) {
        table.row([
            p.name.to_string(),
            ms(p.wall),
            p.sims.to_string(),
            p.events.to_string(),
            format!("{:.0}", p.events_per_sec()),
            format!("{:.0}", p.dispatches_per_sec()),
            ms(p.sim_wall),
        ]);
    }
    table
}
