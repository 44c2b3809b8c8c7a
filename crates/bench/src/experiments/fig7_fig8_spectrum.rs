//! Figures 7 and 8 (with Table 4) — profit percentages across the
//! nine-point QC spectrum.
//!
//! Table 4 varies `QODmax%` from 0.1 to 0.9 (`qodmax ~ U[$10k, $10k+9]`,
//! `qosmax ~ U[$10(10−k), $10(10−k)+9]`). Figure 7 shows FIFO earning the
//! worst QoS everywhere; Figure 8 shows UH earning almost-maximal QoD but
//! poor QoS, QH the mirror image, and QUTS close to maximal on both at
//! every point — up to 101.3% better than UH and up to 40.1% better
//! than QH in total profit.

use crate::{harness, paper_trace, parallel::run_many, run_policy, Policy};
use quts_metrics::{table::pct, TextTable};
use quts_workload::{qcgen, QcPreset, QcShape};
use std::io::{self, Write};

/// Runs the 9-preset × 4-policy grid (in parallel with `jobs` workers)
/// and renders the spectrum tables.
pub fn run(scale: u32, jobs: usize, out: &mut dyn Write) -> io::Result<()> {
    harness::banner_to(
        out,
        "Figures 7-8: profit across the QC spectrum (Table 4 setups)",
        scale,
    )?;

    let base = paper_trace(scale, 1);
    let policies = [
        ("FIFO (Fig 7)", Policy::Fifo),
        ("UH (Fig 8a)", Policy::Uh),
        ("QH (Fig 8b)", Policy::Qh),
        ("QUTS (Fig 8c)", Policy::quts_default()),
    ];

    let traces: Vec<_> = QcPreset::spectrum_points()
        .map(|preset| {
            let mut trace = base.clone();
            qcgen::assign_qcs(&mut trace, preset, QcShape::Step, 7);
            trace
        })
        .collect();

    // The full (preset, policy) grid in one parallel fan-out; input order
    // (preset-major) makes the result layout deterministic.
    let grid: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..policies.len()).map(move |p| (t, p)))
        .collect();
    let reports = run_many(jobs, grid, |(t, p)| {
        let r = run_policy(&traces[t], policies[p].1);
        (
            r.qos_pct(),
            r.qod_pct(),
            r.total_pct(),
            r.aggregates.qos_max_pct(),
        )
    });

    // results[policy][k-1] = (qos_pct, qod_pct, total_pct, qosmax_pct)
    let mut results: Vec<Vec<(f64, f64, f64, f64)>> = vec![Vec::new(); policies.len()];
    for (i, cell) in reports.into_iter().enumerate() {
        results[i % policies.len()].push(cell);
    }

    for (i, (name, _)) in policies.iter().enumerate() {
        writeln!(out, "{name}")?;
        let mut t = TextTable::new(["QODmax%", "QOSmax%", "QoS%", "QoD%", "total%"]);
        for (k, &(qos, qod, total, qosmax)) in results[i].iter().enumerate() {
            t.row([
                format!("0.{}", k + 1),
                pct(qosmax),
                pct(qos),
                pct(qod),
                pct(total),
            ]);
        }
        write!(out, "{}", t.render())?;
        writeln!(out)?;
    }

    // The paper's headline factors.
    let improvement = |a: &[(f64, f64, f64, f64)], b: &[(f64, f64, f64, f64)]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.2 / y.2.max(1e-9) - 1.0)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let quts = &results[3];
    writeln!(
        out,
        "QUTS vs UH: up to {:.1}% better (paper: up to 101.3%)",
        improvement(quts, &results[1]) * 100.0
    )?;
    writeln!(
        out,
        "QUTS vs QH: up to {:.1}% better (paper: up to 40.1%)",
        improvement(quts, &results[2]) * 100.0
    )?;
    writeln!(
        out,
        "QUTS vs FIFO: up to {:.1}% better",
        improvement(quts, &results[0]) * 100.0
    )?;
    let never_worse = quts.iter().zip(&results[2]).all(|(q, h)| q.2 >= h.2 - 0.01)
        && quts.iter().zip(&results[1]).all(|(q, u)| q.2 >= u.2 - 0.01);
    writeln!(
        out,
        "shape check: QUTS better or equal to the best baseline at every point: {never_worse}"
    )
}
