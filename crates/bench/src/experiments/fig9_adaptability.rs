//! Figure 9 — adaptability to changing user preferences.
//!
//! The run is split into four equal intervals whose `qosmax:qodmax` ratio
//! flips between 1:5 and 5:1. The paper plots (a) total gained profit
//! against the submitted maximum, (b)/(c) the same per dimension, and
//! (d) ρ per adaptation period — which must track the QoS share,
//! low-high-low-high, ranging from about 0.6 to about 1, after a
//! 5-second moving-window smoothing of the profit series.

use crate::{harness, paper_trace, parallel::run_many, run_policy, Policy};
use quts_metrics::{timeseries::moving_average, TextTable};
use quts_workload::{qcgen, QcPreset, QcShape};
use std::io::{self, Write};

/// Runs the adaptability experiment and renders the ρ-tracking tables.
pub fn run(scale: u32, jobs: usize, out: &mut dyn Write) -> io::Result<()> {
    harness::banner_to(
        out,
        "Figure 9: adaptability under phase-flipping QCs",
        scale,
    )?;

    let mut trace = paper_trace(scale, 1);
    qcgen::assign_qcs(&mut trace, QcPreset::Phases, QcShape::Step, 7);
    let horizon_s = trace.horizon().as_secs_f64();

    // A single simulation; routed through the pool for uniformity.
    let r = run_many(jobs, vec![()], |()| {
        run_policy(&trace, Policy::quts_default())
    })
    .pop()
    .expect("one report");

    // 5-second moving window, as in the paper's plots.
    let window = 5;
    let q_max = moving_average(&r.profit.q_max_bins(), window);
    let q_gain = moving_average(&r.profit.q_gained_bins(), window);
    let qos_max = moving_average(r.profit.qos_max().sums(), window);
    let qos_gain = moving_average(r.profit.qos_gained().sums(), window);
    let qod_max = moving_average(r.profit.qod_max().sums(), window);
    let qod_gain = moving_average(r.profit.qod_gained().sums(), window);

    // Sample ~16 rows across the run.
    let n = q_max.len();
    let step = (n / 16).max(1);
    let mut t = TextTable::new([
        "t (s)", "phase", "Qmax/s", "Q/s", "QOSmax/s", "QOS/s", "QODmax/s", "QOD/s", "rho",
    ]);
    let rho_at = |sec: f64| -> f64 {
        r.rho_history
            .iter()
            .take_while(|(time, _)| time.as_secs_f64() <= sec)
            .last()
            .map(|&(_, rho)| rho)
            .unwrap_or(f64::NAN)
    };
    for i in (0..n).step_by(step) {
        let sec = i as f64;
        let phase = ((sec / horizon_s * 4.0) as usize).min(3);
        let ratio = if phase.is_multiple_of(2) {
            "1:5"
        } else {
            "5:1"
        };
        t.row([
            format!("{sec:.0}"),
            format!("{} ({ratio})", phase + 1),
            format!("{:.0}", q_max[i]),
            format!("{:.0}", q_gain[i]),
            format!("{:.0}", qos_max[i]),
            format!("{:.0}", qos_gain[i]),
            format!("{:.0}", qod_max[i]),
            format!("{:.0}", qod_gain[i]),
            format!("{:.3}", rho_at(sec)),
        ]);
    }
    write!(out, "{}", t.render())?;

    // Shape checks.
    writeln!(out)?;
    writeln!(
        out,
        "overall gained/max profit: {:.1}%",
        r.total_pct() * 100.0
    )?;
    let phase_mean_rho = |phase: usize| -> f64 {
        let lo = horizon_s * phase as f64 / 4.0;
        let hi = horizon_s * (phase + 1) as f64 / 4.0;
        let xs: Vec<f64> = r
            .rho_history
            .iter()
            .filter(|(time, _)| {
                let s = time.as_secs_f64();
                // Skip the first half of each phase: convergence time.
                s >= (lo + hi) / 2.0 && s < hi
            })
            .map(|&(_, rho)| rho)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let rhos: Vec<f64> = (0..4).map(phase_mean_rho).collect();
    writeln!(
        out,
        "rho per phase (settled half): {:.3} {:.3} {:.3} {:.3}",
        rhos[0], rhos[1], rhos[2], rhos[3]
    )?;
    writeln!(
        out,
        "shape check: rho tracks the QoS share low-high-low-high: {}",
        rhos[0] < rhos[1] && rhos[1] > rhos[2] && rhos[2] < rhos[3]
    )?;
    let in_band = r
        .rho_history
        .iter()
        .all(|&(_, rho)| (0.5..=1.0).contains(&rho));
    writeln!(out, "shape check: rho stays in [0.5, 1]: {in_band}")?;
    writeln!(
        out,
        "shape check: QoD-heavy phases settle near rho = 0.6, QoS-heavy near 1 (paper Fig 9d): \
         {:.2}/{:.2} vs {:.2}/{:.2}",
        rhos[0], rhos[2], rhos[1], rhos[3]
    )
}
