//! Figure 10 — sensitivity of QUTS to its two parameters.
//!
//! (a) the adaptation period ω swept from 0.1 s to 100 s barely moves
//! total profit; (b) the atom time τ swept from 1 ms to 1000 ms peaks
//! around 10 ms — just above the maximum query execution time — and
//! degrades at both extremes (contention at 1 ms; coarse allocation at
//! 1000 ms). Setup as in Figure 9 (phase-flipping QCs).

use crate::{harness, paper_trace, parallel::run_many, run_policy, Policy};
use quts_metrics::{table::pct, TextTable};
use quts_sched::QutsConfig;
use quts_sim::SimDuration;
use quts_workload::{qcgen, QcPreset, QcShape};
use std::io::{self, Write};

/// Runs both parameter sweeps (in parallel with `jobs` workers) and
/// renders the sensitivity tables.
pub fn run(scale: u32, jobs: usize, out: &mut dyn Write) -> io::Result<()> {
    harness::banner_to(
        out,
        "Figure 10: sensitivity of QUTS to omega and tau",
        scale,
    )?;

    let mut trace = paper_trace(scale, 1);
    qcgen::assign_qcs(&mut trace, QcPreset::Phases, QcShape::Step, 7);

    // Both sweeps as one parallel grid; results come back in input order.
    let omegas = [100u64, 500, 1_000, 5_000, 10_000, 50_000, 100_000];
    let taus = [1u64, 5, 10, 50, 100, 500, 1_000];
    let configs: Vec<QutsConfig> = omegas
        .iter()
        .map(|&ms| QutsConfig::default().with_omega(SimDuration::from_ms(ms)))
        .chain(
            taus.iter()
                .map(|&ms| QutsConfig::default().with_tau(SimDuration::from_ms(ms))),
        )
        .collect();
    let profits = run_many(jobs, configs, |cfg| {
        run_policy(&trace, Policy::Quts(cfg)).total_pct()
    });
    let (omega_profits, tau_profits) = profits.split_at(omegas.len());

    // (a) adaptation period sweep, tau fixed at the 10 ms default.
    writeln!(out, "(a) adaptation period omega (tau = 10 ms)")?;
    let mut t = TextTable::new(["omega", "total profit %"]);
    for (&omega_ms, &profit) in omegas.iter().zip(omega_profits) {
        t.row([format!("{:.1} s", omega_ms as f64 / 1000.0), pct(profit)]);
    }
    write!(out, "{}", t.render())?;
    let spread = omega_profits
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        - omega_profits.iter().cloned().fold(f64::INFINITY, f64::min);
    writeln!(out)?;
    writeln!(
        out,
        "shape check: profit varies little across three orders of magnitude of omega: \
         spread {:.1} pp (paper: 'very little')",
        spread * 100.0
    )?;

    // (b) atom time sweep, omega fixed at the 1000 ms default.
    writeln!(out)?;
    writeln!(out, "(b) atom time tau (omega = 1000 ms)")?;
    let mut t = TextTable::new(["tau", "total profit %"]);
    for (&tau_ms, &profit) in taus.iter().zip(tau_profits) {
        t.row([format!("{tau_ms} ms"), pct(profit)]);
    }
    write!(out, "{}", t.render())?;
    let best = tau_profits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| taus[i])
        .unwrap();
    writeln!(out)?;
    writeln!(
        out,
        "best tau: {best} ms (paper: ~10 ms, 'above the maximum execution time of most queries')"
    )?;
    writeln!(
        out,
        "shape check: tau = 1000 ms is not better than the 5-50 ms band: {}",
        tau_profits[6] <= tau_profits[1].max(tau_profits[2]).max(tau_profits[3]) + 1e-9
    )
}
