//! Figure 6 — profit percentage of the four scheduling algorithms under
//! step and linear Quality Contracts.
//!
//! Setup: `qosmax, qodmax ~ U[$10, $50]` (so `QOSmax% = QODmax% = 0.5`),
//! `rtmax ~ U[50, 100] ms`, `uumax = 1`. The paper's reading: QUTS earns
//! the highest total, close to maximal on both dimensions — taking the
//! "best" dimension of each baseline (QoS from QH, QoD from UH); QH is
//! low on QoD, UH low on QoS, FIFO worst overall with the worst QoS.

use crate::{harness, paper_trace, parallel::run_many, run_policy, Policy};
use quts_metrics::{table::pct, TextTable};
use quts_workload::{qcgen, QcPreset, QcShape};
use std::io::{self, Write};

/// Runs the 2-shape × 4-policy grid (in parallel with `jobs` workers) and
/// renders both Figure 6 panels.
pub fn run(scale: u32, jobs: usize, out: &mut dyn Write) -> io::Result<()> {
    harness::banner_to(
        out,
        "Figure 6: step vs linear QCs, profit percentage per policy",
        scale,
    )?;

    let base = paper_trace(scale, 1);

    let shapes = [
        (QcShape::Step, "(a) step QCs"),
        (QcShape::Linear, "(b) linear QCs"),
    ];
    let traces: Vec<_> = shapes
        .iter()
        .map(|&(shape, _)| {
            let mut trace = base.clone();
            qcgen::assign_qcs(&mut trace, QcPreset::Balanced, shape, 7);
            trace
        })
        .collect();

    // One grid over (shape, policy); results come back in input order.
    let grid: Vec<(usize, Policy)> = (0..shapes.len())
        .flat_map(|s| Policy::comparison_set().into_iter().map(move |p| (s, p)))
        .collect();
    let reports = run_many(jobs, grid, |(s, policy)| run_policy(&traces[s], policy));
    let per_shape = Policy::comparison_set().len();

    for (s, (_, label)) in shapes.iter().enumerate() {
        writeln!(out, "{label}")?;
        let mut t = TextTable::new(["policy", "QoS%", "QoD%", "total%", "rt (ms)", "#uu"]);
        let mut totals = Vec::new();
        for r in &reports[s * per_shape..(s + 1) * per_shape] {
            t.row([
                r.scheduler.to_string(),
                pct(r.qos_pct()),
                pct(r.qod_pct()),
                pct(r.total_pct()),
                format!("{:.1}", r.avg_response_time_ms()),
                format!("{:.3}", r.avg_staleness()),
            ]);
            totals.push((r.scheduler, r.total_pct(), r.qos_pct(), r.qod_pct()));
        }
        write!(out, "{}", t.render())?;

        let get = |n: &str| totals.iter().find(|x| x.0 == n).unwrap();
        let quts = get("QUTS");
        writeln!(out)?;
        writeln!(
            out,
            "shape check: QUTS within 1pp of the best policy on total profit: {}",
            totals.iter().all(|x| quts.1 >= x.1 - 0.01)
        )?;
        writeln!(
            out,
            "shape check: FIFO and UH are the bottom two on total profit: {}",
            get("FIFO").1 < quts.1 - 0.05
                && get("FIFO").1 < get("QH").1 - 0.05
                && get("UH").1 < quts.1 - 0.05
        )?;
        writeln!(
            out,
            "shape check: the fixed-priority extremes each sacrifice a dimension: \
             UH QoS {} vs QH QoS {}; QH #uu > UH #uu = 0",
            pct(get("UH").2),
            pct(get("QH").2)
        )?;
        writeln!(out)?;
    }
    Ok(())
}
