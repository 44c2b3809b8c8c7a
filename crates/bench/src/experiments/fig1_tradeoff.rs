//! Figure 1 — the response-time / staleness trade-off of the three naive
//! scheduling policies.
//!
//! The paper runs plain FIFO, FIFO-UH (updates preempt, FIFO queries) and
//! FIFO-QH (queries preempt, FIFO updates) over the stock trace and plots
//! average response time against average staleness (`#uu`), observing
//! three mutually dominating points:
//!
//! ```text
//! FIFO-UH  [11591 ms, 0.00]   zero staleness, unusable latency
//! FIFO     [  322 ms, 0.07]   in between
//! FIFO-QH  [   23 ms, 0.26]   lowest latency, worst staleness
//! ```

use crate::{harness, paper_trace, parallel::run_many, run_policy, Policy};
use quts_metrics::TextTable;
use quts_workload::{qcgen, QcPreset, QcShape};
use std::io::{self, Write};

/// Runs the three naive policies (in parallel with `jobs` workers) and
/// renders the trade-off table.
pub fn run(scale: u32, jobs: usize, out: &mut dyn Write) -> io::Result<()> {
    harness::banner_to(
        out,
        "Figure 1: impact of naive scheduling on the RT/staleness trade-off",
        scale,
    )?;

    let mut trace = paper_trace(scale, 1);
    qcgen::assign_qcs(&mut trace, QcPreset::Balanced, QcShape::Step, 7);

    let paper: &[(&str, f64, f64)] = &[
        ("FIFO", 322.0, 0.07),
        ("FIFO-UH", 11591.0, 0.0),
        ("FIFO-QH", 23.0, 0.26),
    ];

    let grid = [
        (Policy::Fifo, "FIFO"),
        (Policy::FifoUh, "FIFO-UH"),
        (Policy::FifoQh, "FIFO-QH"),
    ];
    let reports = run_many(jobs, grid.to_vec(), |(policy, name)| {
        (name, run_policy(&trace, policy))
    });

    let mut table = TextTable::new([
        "policy",
        "rt (ms)",
        "#uu",
        "paper rt",
        "paper #uu",
        "committed",
        "expired",
    ]);
    let mut measured = Vec::new();
    for (name, r) in &reports {
        let (_, p_rt, p_uu) = paper.iter().find(|&&(n, ..)| n == *name).unwrap();
        table.row([
            name.to_string(),
            format!("{:.1}", r.avg_response_time_ms()),
            format!("{:.3}", r.avg_staleness()),
            format!("{p_rt:.0}"),
            format!("{p_uu:.2}"),
            r.committed.to_string(),
            r.expired.to_string(),
        ]);
        measured.push((*name, r.avg_response_time_ms(), r.avg_staleness()));
    }
    write!(out, "{}", table.render())?;

    // The shape that matters: RT ordering QH < FIFO < UH, staleness
    // ordering reversed, UH exactly fresh.
    let rt = |n: &str| measured.iter().find(|m| m.0 == n).unwrap().1;
    let uu = |n: &str| measured.iter().find(|m| m.0 == n).unwrap().2;
    writeln!(out)?;
    writeln!(
        out,
        "shape check: rt(FIFO-QH) < rt(FIFO) < rt(FIFO-UH): {}",
        rt("FIFO-QH") < rt("FIFO") && rt("FIFO") < rt("FIFO-UH")
    )?;
    writeln!(
        out,
        "shape check: uu(FIFO-UH) = 0 <= uu(FIFO) <= uu(FIFO-QH): {}",
        uu("FIFO-UH") == 0.0 && uu("FIFO") <= uu("FIFO-QH")
    )?;
    writeln!(
        out,
        "shape check: all three points mutually dominating (no policy wins both axes): {}",
        rt("FIFO-QH") < rt("FIFO") && uu("FIFO-QH") > uu("FIFO")
    )
}
