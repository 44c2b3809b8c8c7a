//! Ablations over the design choices DESIGN.md calls out.
//!
//! These are not paper figures; they quantify the assumptions the
//! reproduction had to make and the knobs the paper leaves open:
//!
//! 1. the aging factor α ("the exact α does not matter much"),
//! 2. the staleness aggregation for multi-item queries (Max/Sum/Mean),
//! 3. QoS-Dependent vs QoS-Independent contract composition,
//! 4. the update register table's queue-position inheritance (vs naive
//!    tail re-entry, which starves hot items),
//! 5. the low-level query policy under QUTS (VRD/EDF/FIFO/profit-density).

use crate::{harness, paper_trace, parallel::run_many, run_policy, run_policy_with, Policy};
use quts_metrics::{table::pct, TextTable};
use quts_qc::{Composition, StalenessAggregation};
use quts_sched::{QueryOrder, QutsConfig};
use quts_sim::{engine::UpdateReentry, SimConfig};
use quts_workload::{qcgen, QcPreset, QcShape};
use std::io::{self, Write};

/// Runs every ablation section (each section's grid in parallel with
/// `jobs` workers) and renders the tables.
pub fn run(scale: u32, jobs: usize, out: &mut dyn Write) -> io::Result<()> {
    harness::banner_to(
        out,
        "Ablations over the reproduction's design choices",
        scale,
    )?;

    let base = paper_trace(scale, 1);
    let mut balanced = base.clone();
    qcgen::assign_qcs(&mut balanced, QcPreset::Balanced, QcShape::Step, 7);
    let mut qod_heavy = base.clone();
    qcgen::assign_qcs(
        &mut qod_heavy,
        QcPreset::Spectrum { k: 9 },
        QcShape::Step,
        7,
    );
    let mut phases = base;
    qcgen::assign_qcs(&mut phases, QcPreset::Phases, QcShape::Step, 7);

    // 1. Aging factor α (phase workload: adaptation speed matters most).
    writeln!(out, "1. aging factor alpha (QUTS, Figure 9 workload)")?;
    let mut t = TextTable::new(["alpha", "total profit %"]);
    let alphas = [0.05, 0.1, 0.2, 0.5, 1.0];
    let profits = run_many(jobs, alphas.to_vec(), |alpha| {
        run_policy(
            &phases,
            Policy::Quts(QutsConfig::default().with_alpha(alpha)),
        )
        .total_pct()
    });
    for (alpha, profit) in alphas.iter().zip(profits) {
        t.row([format!("{alpha}"), pct(profit)]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out)?;

    // 2. Staleness aggregation for multi-item queries.
    writeln!(out, "2. staleness aggregation (QUTS, balanced QCs)")?;
    let mut t = TextTable::new(["aggregation", "total profit %", "#uu"]);
    let aggs = [
        (StalenessAggregation::Max, "max"),
        (StalenessAggregation::Sum, "sum"),
        (StalenessAggregation::Mean, "mean"),
    ];
    let rows = run_many(jobs, aggs.to_vec(), |(agg, name)| {
        let sim = SimConfig {
            staleness_agg: agg,
            ..SimConfig::default()
        };
        let r = run_policy_with(&balanced, Policy::quts_default(), sim);
        (name, r.total_pct(), r.avg_staleness())
    });
    for (name, total, uu) in rows {
        t.row([name.to_string(), pct(total), format!("{uu:.3}")]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out)?;

    // 3. Composition mode.
    writeln!(out, "3. contract composition (QUTS, balanced QCs)")?;
    let mut t = TextTable::new(["composition", "QoS%", "QoD%", "total%"]);
    let comps = [
        (Composition::QoSIndependent, "QoS-independent (paper)"),
        (Composition::QoSDependent, "QoS-dependent"),
    ];
    let rows = run_many(jobs, comps.to_vec(), |(comp, name)| {
        let mut trace = balanced.clone();
        for q in &mut trace.queries {
            q.qc.composition = comp;
        }
        let r = run_policy(&trace, Policy::quts_default());
        (name, r.qos_pct(), r.qod_pct(), r.total_pct())
    });
    for (name, qos, qod, total) in rows {
        t.row([name.to_string(), pct(qos), pct(qod), pct(total)]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out)?;

    // 4. Register-table queue-position inheritance.
    writeln!(out, "4. update re-entry semantics (QH, QoD-heavy QCs)")?;
    let mut t = TextTable::new([
        "re-entry",
        "total%",
        "mean #uu",
        "worst #uu",
        "mean apply delay",
    ]);
    let modes = [
        (UpdateReentry::InheritPosition, "inherit position (default)"),
        (UpdateReentry::Tail, "tail (naive)"),
    ];
    let rows = run_many(jobs, modes.to_vec(), |(mode, name)| {
        let sim = SimConfig {
            update_reentry: mode,
            ..SimConfig::default()
        };
        let r = run_policy_with(&qod_heavy, Policy::Qh, sim);
        (
            name,
            r.total_pct(),
            r.avg_staleness(),
            r.staleness.max().unwrap_or(0.0),
            r.update_delay_ms.mean(),
        )
    });
    for (name, total, uu, worst, delay) in rows {
        t.row([
            name.to_string(),
            pct(total),
            format!("{uu:.3}"),
            format!("{worst:.0}"),
            format!("{delay:.0} ms"),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(tail re-entry keeps reborn updates at the back of the queue, so frequently          traded stocks accumulate unbounded #uu while cold stocks stay fresh)"
    )?;
    writeln!(out)?;

    // 5. Single-priority-queue exchange rates (Section 3.1's strawman).
    writeln!(
        out,
        "5. one merged priority queue: the exchange-rate strawman"
    )?;
    writeln!(
        out,
        "   (queries ranked by VRD; every update worth `rate` on the same scale)"
    )?;
    let mut t = TextTable::new(["policy", "QoS-heavy k=1", "balanced k=5", "QoD-heavy k=9"]);
    let mut spectrum_traces = Vec::new();
    for k in [1u8, 5, 9] {
        let mut tr = paper_trace(scale, 1);
        qcgen::assign_qcs(&mut tr, QcPreset::Spectrum { k }, QcShape::Step, 7);
        spectrum_traces.push(tr);
    }
    let strawmen: Vec<(String, Policy)> = [0.0, 0.2, 0.5, 1.0, 5.0]
        .into_iter()
        .map(|rate| {
            (
                format!("Greedy rate={rate}"),
                Policy::Greedy {
                    exchange_rate: rate,
                },
            )
        })
        .chain([("QUTS".to_string(), Policy::quts_default())])
        .collect();
    // Policy-major grid: one row of three spectrum cells per policy.
    let grid: Vec<(usize, Policy)> = strawmen
        .iter()
        .flat_map(|&(_, policy)| (0..spectrum_traces.len()).map(move |i| (i, policy)))
        .collect();
    let cells = run_many(jobs, grid, |(i, policy)| {
        pct(run_policy(&spectrum_traces[i], policy).total_pct())
    });
    for (row, (name, _)) in strawmen.iter().enumerate() {
        let c = &cells[row * spectrum_traces.len()..(row + 1) * spectrum_traces.len()];
        t.row([name.clone(), c[0].clone(), c[1].clone(), c[2].clone()]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(no single exchange rate matches QUTS at every point: low rates mimic QH, \
         high rates mimic UH — the scales are incomparable, which is the paper's \
         argument for two-level scheduling)"
    )?;
    writeln!(out)?;

    // 6. Adaptive vs frozen rho (what the feedback loop is worth).
    writeln!(
        out,
        "6. adaptive rho vs static allocations (Figure 9 workload)"
    )?;
    let mut t = TextTable::new(["variant", "total profit %"]);
    let variants: Vec<(String, QutsConfig)> = [0.5, 0.6, 0.75, 0.9, 1.0]
        .into_iter()
        .map(|rho| {
            (
                format!("fixed rho={rho}"),
                QutsConfig::default().with_fixed_rho(rho),
            )
        })
        .chain([("adaptive (paper)".to_string(), QutsConfig::default())])
        .collect();
    let profits = run_many(jobs, variants.clone(), |(_, cfg)| {
        run_policy(&phases, Policy::Quts(cfg)).total_pct()
    });
    for ((name, _), profit) in variants.iter().zip(profits) {
        t.row([name.clone(), pct(profit)]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(adaptation must match or beat every static allocation)"
    )?;
    writeln!(out)?;

    // 7. Low-level query policy under QUTS.
    writeln!(out, "7. low-level query policy (QUTS, balanced QCs)")?;
    let mut t = TextTable::new(["policy", "QoS%", "QoD%", "total%", "rt (ms)"]);
    let orders = [
        QueryOrder::Vrd,
        QueryOrder::Edf,
        QueryOrder::Fifo,
        QueryOrder::ProfitDensity,
    ];
    let rows = run_many(jobs, orders.to_vec(), |order| {
        let cfg = QutsConfig::default().with_query_order(order);
        let r = run_policy(&balanced, Policy::Quts(cfg));
        (
            order.label(),
            r.qos_pct(),
            r.qod_pct(),
            r.total_pct(),
            r.avg_response_time_ms(),
        )
    });
    for (label, qos, qod, total, rt) in rows {
        t.row([
            label.to_string(),
            pct(qos),
            pct(qod),
            pct(total),
            format!("{rt:.1}"),
        ]);
    }
    write!(out, "{}", t.render())?;
    Ok(())
}
