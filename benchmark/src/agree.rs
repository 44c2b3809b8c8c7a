//! Repeatability tooling: per-metric medians and quartiles over the
//! sets of one result file, and the comparison of two result files
//! against the bounds.

use crate::json::Json;
use crate::metrics::{self, judge, worsening, Bound, Gate, Verdict};
use crate::stats::{median, quartiles};
use std::process::ExitCode;

/// Counts that must repeat exactly for a seed: `(workload, metric)`,
/// `*` for every workload that reports the metric.
const EXACT: &[(&str, &str)] = &[
    ("virt_paper_trace", "profit_pct"),
    ("virt_paper_trace", "sim.dispatches"),
    ("virt_paper_trace", "virt.dispatches"),
    ("virt_paper_trace", "virt.updates_invalidated"),
    ("virt_paper_trace", "virt.end_us"),
    ("*", "wal.bytes_per_update"),
];

/// The values of `metric` on `workload` across a file's sets.
fn series(sets: &Json, pass: &str, workload: &str, metric: &str) -> Vec<f64> {
    sets.as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(|set| {
            set.get(pass)?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// `{pass: {workload: {metric: {median, q1, q3, sets, unit}}}}` over a
/// result file's `sets`.
pub fn summarize(sets: &Json) -> Json {
    let Some(first) = sets.as_arr().and_then(<[Json]>::first) else {
        return Json::obj::<String>([]);
    };
    let passes = first.entries().iter().map(|(pass, workloads)| {
        let per_workload = workloads.entries().iter().map(|(workload, run)| {
            let metrics = run
                .get("metrics")
                .map_or(&[][..], Json::entries)
                .iter()
                .map(|(metric, m)| {
                    let values = series(sets, pass, workload, metric);
                    let mut fields = vec![("median".to_string(), Json::Num(median(&values)))];
                    if let Some((q1, q3)) = quartiles(&values) {
                        fields.push(("q1".into(), Json::Num(q1)));
                        fields.push(("q3".into(), Json::Num(q3)));
                    }
                    fields.push(("sets".into(), Json::Num(values.len() as f64)));
                    fields.push(("unit".into(), m.get("unit").cloned().unwrap_or(Json::Null)));
                    (metric.clone(), Json::Obj(fields))
                });
            (workload.clone(), Json::obj(metrics))
        });
        (pass.clone(), Json::obj(per_workload))
    });
    Json::obj(passes)
}

pub fn print_summary(summary: &Json) {
    println!("#### summary: median [q1 .. q3] over sets");
    for (pass, workloads) in summary.entries() {
        for (workload, metrics) in workloads.entries() {
            println!("== {workload} ({pass})");
            for (metric, m) in metrics.entries() {
                let num = |k: &str| m.get(k).and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                match (num("q1"), num("q3")) {
                    (Some(q1), Some(q3)) => println!(
                        "  {metric:<34} {:>16.4} [{q1:.4} .. {q3:.4}] {unit}",
                        num("median").unwrap_or(f64::NAN)
                    ),
                    _ => println!(
                        "  {metric:<34} {:>16.4} {unit}",
                        num("median").unwrap_or(f64::NAN)
                    ),
                }
            }
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `agree A.json B.json [--bounds BENCHMARK.json]`: one row per gated
/// (workload, metric). Exit code 1 if anything regressed, 2 if nothing
/// regressed but something is unresolved, 0 otherwise.
pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            match it.next() {
                Some(p) => bounds_path = p.clone(),
                None => {
                    eprintln!("--bounds needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("usage: agree A.json B.json [--bounds BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let (a, b, spec) = match (load(a_path), load(b_path), load(&bounds_path)) {
        (Ok(a), Ok(b), Ok(spec)) => (a, b, spec),
        (a, b, spec) => {
            for e in [a.err(), b.err(), spec.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let json_bound = |name: &str| -> Option<f64> {
        spec.get("end_to_end")?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    let (a_sets, b_sets) = (
        a.get("sets").cloned().unwrap_or(Json::Null),
        b.get("sets").cloned().unwrap_or(Json::Null),
    );

    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>9} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "moved", "spread", "bound"
    );
    let (mut regressed, mut unresolved, mut rows) = (0, 0, 0);
    for workload in &workloads {
        for def in metrics::REGISTRY {
            let exact = EXACT
                .iter()
                .any(|&(w, m)| m == def.name && (w == "*" || w == workload));
            let (pass, bound) = match def.gate {
                _ if exact => (
                    if def.gate == Gate::Layer {
                        "traced"
                    } else {
                        "untraced"
                    },
                    Bound::Any,
                ),
                Gate::EndToEnd => match json_bound(def.name) {
                    Some(share) => ("untraced", Bound::Rel(share)),
                    None => {
                        eprintln!("{bounds_path} has no bound for {}", def.name);
                        return ExitCode::from(2);
                    }
                },
                Gate::Headline(bound) => ("untraced", bound),
                Gate::Layer => continue,
            };
            let (va, vb) = (
                series(&a_sets, pass, workload, def.name),
                series(&b_sets, pass, workload, def.name),
            );
            if va.is_empty() && vb.is_empty() {
                continue; // not a metric of this workload
            }
            rows += 1;
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{workload:<20} {:<28} present in one file only  regressed",
                    def.name
                );
                regressed += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Each side's interquartile range, in the bound's terms; the
            // wider one counts.
            let iqr = |v: &[f64], m: f64| {
                quartiles(v).map(|(q1, q3)| match bound {
                    Bound::Rel(_) if m != 0.0 => (q3 - q1) / m.abs(),
                    _ => q3 - q1,
                })
            };
            let spread = match (iqr(&va, ma), iqr(&vb, mb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            // Set-up time is short CPU-bound work on a sandbox whose CPU
            // speed wanders; like the acceptance driver, judge its
            // medians and leave its spread out of it.
            let spread_counts = def.name != "setup_s";
            let verdict = if exact {
                // Exact counts may move neither way.
                if va.iter().chain(&vb).all(|v| v.to_bits() == va[0].to_bits()) {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                }
            } else {
                judge(def.better, bound, ma, mb, spread.filter(|_| spread_counts))
            };
            let spread_text = match (spread, bound) {
                (None, _) => "-".into(),
                (Some(s), Bound::Rel(_)) => format!("{:.2}%", 100.0 * s),
                (Some(s), _) => format!("{s:.4}"),
            };
            let (moved, bound_text) = match bound {
                Bound::Rel(share) => (
                    format!("{:+.2}%", 100.0 * worsening(def.better, bound, ma, mb)),
                    format!("{:.0}%", 100.0 * share),
                ),
                Bound::Abs(amount) => (
                    format!("{:+.4}", worsening(def.better, bound, ma, mb)),
                    format!("{amount}"),
                ),
                Bound::Any => (
                    format!("{:+.4}", worsening(def.better, bound, ma, mb)),
                    "exact".into(),
                ),
            };
            println!(
                "{workload:<20} {:<28} {ma:>14.4} {mb:>14.4} {moved:>9} {spread_text:>9} {bound_text:>9}  {}",
                def.name,
                verdict.label()
            );
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
        }
    }
    println!("{rows} rows: {regressed} regressed, {unresolved} unresolved (\"moved\" is positive when B is worse)");
    match (regressed, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(2),
        _ => ExitCode::from(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(values: &[f64]) -> Json {
        let sets = values.iter().map(|&v| {
            let metric = Json::obj([("value", Json::Num(v)), ("unit", Json::Str("us".into()))]);
            let run = Json::obj([("metrics", Json::obj([("query_p50_us", metric)]))]);
            Json::obj([("untraced", Json::obj([("wire_closed", run)]))])
        });
        Json::Arr(sets.collect())
    }

    #[test]
    fn summary_reports_median_and_quartiles_per_metric() {
        let sets = file(&[10.0, 40.0, 20.0, 30.0]);
        assert_eq!(
            series(&sets, "untraced", "wire_closed", "query_p50_us"),
            vec![10.0, 40.0, 20.0, 30.0]
        );
        assert!(series(&sets, "traced", "wire_closed", "query_p50_us").is_empty());
        let summary = summarize(&sets);
        let m = summary
            .get("untraced")
            .and_then(|p| p.get("wire_closed"))
            .and_then(|w| w.get("query_p50_us"))
            .unwrap();
        assert_eq!(m.get("median").and_then(Json::as_f64), Some(25.0));
        assert_eq!(m.get("q1").and_then(Json::as_f64), Some(12.5));
        assert_eq!(m.get("q3").and_then(Json::as_f64), Some(37.5));
        assert_eq!(m.get("sets").and_then(Json::as_f64), Some(4.0));
        // A single set has a median and no quartiles.
        let one = summarize(&file(&[7.0]));
        let m = one
            .get("untraced")
            .and_then(|p| p.get("wire_closed"))
            .and_then(|w| w.get("query_p50_us"))
            .unwrap();
        assert_eq!(m.get("median").and_then(Json::as_f64), Some(7.0));
        assert!(m.get("q1").is_none());
    }
}
