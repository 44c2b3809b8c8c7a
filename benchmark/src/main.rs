//! `quts-benchmark`: the repo's wire-level, layer-attributed benchmark.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is the result object
//! run.sh --seed N [--seconds S] [--repeat R] [--out F]   every workload, untraced and traced, R sets, one result file
//! agree.sh A.json B.json                                 compare two result files against the bounds
//! ```
//!
//! The process exits non-zero when any output was incorrect.

mod agree;
mod json;
mod load;
mod metrics;
mod probes;
mod stats;
mod sut;
mod wire;
mod workloads;

use json::Json;
use metrics::Gate;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Knobs, Outcome, Values, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    out_dir: PathBuf,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: quts-benchmark --seed N [--workload W] [--seconds S] [--trace 0|1 | --traced] \
[--repeat R] [--out FILE] [--out-dir DIR]\n       quts-benchmark agree A.json B.json [--bounds BENCHMARK.json]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(parsed.seconds >= 1.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|_| "bad --repeat")?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload, ready to print and serialize.
struct Record {
    workload: Workload,
    traced: bool,
    run: Outcome,
}

fn knobs(args: &Args, traced: bool) -> Knobs {
    Knobs {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        // WAL directories live here while a run lasts.
        scratch: args.out_dir.join(format!("wal-{}", std::process::id())),
    }
}

/// The untraced run: every end-to-end metric, plus whatever else the
/// workload measures from outside.
fn plain_run(workload: Workload, args: &Args) -> std::io::Result<Record> {
    println!(
        "== {} (seed {}, {} s, tracing off)",
        workload.name(),
        args.seed,
        args.seconds
    );
    let mut run = workloads::run(workload, &knobs(args, false))?;
    for def in metrics::end_to_end() {
        if !run.values.contains_key(def.name) {
            run.problems.push(format!(
                "{} could not be measured (too few samples for the percentile rule?)",
                def.name
            ));
        }
    }
    Ok(Record {
        workload,
        traced: false,
        run,
    })
}

/// The traced run: after `plain`, the same workload and seed with
/// tracing off, the same again with the engine's span level on, then
/// the layer probes. The throughput gap between the two passes is the
/// tracing overhead.
fn traced_run(plain: Record, args: &Args) -> std::io::Result<Record> {
    let workload = plain.workload;
    println!(
        "== {} (seed {}, {} s, spans on)",
        workload.name(),
        args.seed,
        args.seconds
    );
    let traced_knobs = knobs(args, true);
    let traced = workloads::run(workload, &traced_knobs)?;

    if !traced.spans.is_empty() {
        let spans_path = args
            .out_dir
            .join(format!("{}.spans.jsonl", workload.name()));
        std::fs::create_dir_all(&args.out_dir)?;
        std::fs::write(&spans_path, wire::spans_to_jsonl(&traced.spans))?;
        println!(
            "  {} generator spans -> {}",
            traced.spans.len(),
            spans_path.display()
        );
    }

    let mut run = plain.run;
    run.problems
        .extend(traced.problems.iter().map(|p| format!("traced pass: {p}")));
    run.attempted += traced.attempted;
    run.failed += traced.failed;
    // Engine-side numbers come from the traced pass, where the span
    // histograms are populated; everything else from the untraced one.
    for (name, value) in &traced.values {
        if name.starts_with("engine.") || name.starts_with("durability.") {
            run.values.insert(name, *value);
        }
    }
    let ops = |v: &Values| v.get("ops_per_s").map(|m| m.value);
    if let (Some(off), Some(on)) = (ops(&run.values), ops(&traced.values)) {
        let n = traced.values["ops_per_s"].n;
        run.values.insert(
            "engine.trace_overhead_pct",
            workloads::Measured {
                value: 100.0 * (1.0 - on / off),
                n,
            },
        );
    }
    // What the client waited beyond the engine's own response time: the
    // self time of accept/read/handle/reply-write plus TCP. (The virtual
    // workload has no wire.)
    let on_the_wire = workload != Workload::VirtPaperTrace;
    if let (true, Some(client), Some(engine)) = (
        on_the_wire,
        traced.values.get("query_p50_us"),
        traced.values.get("engine.response_p50_us"),
    ) {
        run.values.insert(
            "wire.overhead_p50_us",
            workloads::Measured {
                value: client.value - engine.value,
                n: client.n,
            },
        );
    }

    let lines = workloads::probe_lines(workload, &traced_knobs);
    std::fs::create_dir_all(&traced_knobs.scratch)?;
    let probes = sut::layer_probes(&lines, &traced_knobs.scratch);
    let _ = std::fs::remove_dir_all(&traced_knobs.scratch);
    for probe in probes? {
        debug_assert!(
            metrics::lookup(probe.name).is_some_and(|d| d.unit == probe.unit),
            "{}",
            probe.name
        );
        run.values.insert(
            probe.name,
            workloads::Measured {
                value: probe.value,
                n: probe.n as u64,
            },
        );
    }
    let rate = sut::trace_generation_rate(args.seed);
    run.values.insert(
        "workload.gen_events_per_s",
        workloads::Measured { value: rate, n: 1 },
    );
    Ok(Record {
        workload,
        traced: true,
        run,
    })
}

fn print_record(rec: &Record) {
    println!(
        "  attempted {}  failed {}  measured {:.2} s  correct {}",
        rec.run.attempted,
        rec.run.failed,
        rec.run.measured_s,
        rec.run.problems.is_empty()
    );
    for def in metrics::REGISTRY {
        let listed = match def.gate {
            Gate::EndToEnd => true,
            _ => rec.traced || rec.run.values.contains_key(def.name),
        };
        if !listed {
            continue;
        }
        match rec.run.values.get(def.name) {
            Some(m) => println!(
                "  {:<34} {:>16.4} {:<6} (n={})",
                def.name, m.value, def.unit, m.n
            ),
            None => println!(
                "  {:<34} {:>16} {:<6} (not measured on this workload)",
                def.name, "n/a", def.unit
            ),
        }
    }
    for problem in &rec.run.problems {
        println!("  INCORRECT: {problem}");
    }
}

/// The driver-facing result object: `--trace 0` carries exactly the
/// end-to-end metrics, `--trace 1` exactly the per-layer ones. A
/// per-layer metric a workload does not exercise reads 0.
fn result_object(rec: &Record) -> Json {
    let wanted: Vec<&metrics::Def> = if rec.traced {
        metrics::per_layer().collect()
    } else {
        metrics::end_to_end().collect()
    };
    let metrics = wanted.into_iter().map(|def| {
        let value = rec.run.values.get(def.name).map_or(0.0, |m| m.value);
        (
            def.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(rec.run.problems.is_empty())),
        ("attempted", Json::Num(rec.run.attempted.max(1) as f64)),
        ("failed", Json::Num(rec.run.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Every value a record holds, with sample counts, for the result file.
fn full_object(rec: &Record) -> Json {
    let metrics = rec.run.values.iter().map(|(name, m)| {
        let unit = metrics::lookup(name).map_or("", |d| d.unit);
        (
            *name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(unit.into())),
                ("n", Json::Num(m.n as f64)),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(rec.run.problems.is_empty())),
        ("attempted", Json::Num(rec.run.attempted as f64)),
        ("failed", Json::Num(rec.run.failed as f64)),
        ("measured_s", Json::Num(rec.run.measured_s)),
        ("flush_policy", Json::Str(rec.workload.flush_policy())),
        (
            "problems",
            Json::Arr(rec.run.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_sets(args: &Args) -> std::io::Result<bool> {
    let selected: Vec<Workload> = args
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut sets = Vec::with_capacity(args.repeat);
    let mut all_correct = true;
    for set in 0..args.repeat {
        if args.repeat > 1 {
            println!("#### set {} of {}", set + 1, args.repeat);
        }
        let mut plain_runs = Vec::new();
        let mut traced_runs = Vec::new();
        for &workload in &selected {
            let rec = plain_run(workload, args)?;
            print_record(&rec);
            all_correct &= rec.run.problems.is_empty();
            plain_runs.push((workload.name(), full_object(&rec)));
            // The traced run builds on the untraced pass just made.
            let rec = traced_run(rec, args)?;
            print_record(&rec);
            all_correct &= rec.run.problems.is_empty();
            traced_runs.push((workload.name(), full_object(&rec)));
        }
        sets.push(Json::obj([
            ("untraced", Json::obj(plain_runs)),
            ("traced", Json::obj(traced_runs)),
        ]));
    }
    let sets = Json::Arr(sets);
    let summary = agree::summarize(&sets);
    agree::print_summary(&summary);
    let meta = Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "git_head",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("generator_threads", Json::Num(2.0)),
        ("generator_connections", Json::Num(2.0)),
    ]);
    let mut summary_pairs = summary.entries().to_vec();
    summary_pairs.push(("claim".into(), Json::Null));
    let file = Json::obj([
        ("meta", meta),
        ("sets", sets),
        ("summary", Json::Obj(summary_pairs)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("results-seed{}.json", args.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, file.render() + "\n")?;
    println!("results -> {}", path.display());
    println!("\"claim\": null");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("agree") {
        return agree::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A single workload with the default repeat is the driver's form:
    // one run, the result object as the last line of stdout.
    let outcome = if let (Some(workload), 1, None) = (args.workload, args.repeat, &args.out) {
        let rec = plain_run(workload, &args).and_then(|plain| {
            if args.traced {
                traced_run(plain, &args)
            } else {
                Ok(plain)
            }
        });
        rec.map(|rec| {
            print_record(&rec);
            println!("{}", result_object(&rec).render());
            rec.run.problems.is_empty()
        })
    } else {
        run_sets(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let registered = |defs: Vec<&metrics::Def>| -> Vec<(String, String, String)> {
            defs.into_iter()
                .map(|d| {
                    let better = match d.better {
                        metrics::Better::Lower => "lower",
                        metrics::Better::Higher => "higher",
                    };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            registered(metrics::end_to_end().collect())
        );
        assert_eq!(
            listed("per_layer"),
            registered(metrics::per_layer().collect())
        );
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn driver_arguments_parse() {
        let argv: Vec<String> = "--workload wire_closed --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.traced),
            (Some(Workload::WireClosed), 7, 10.0, true)
        );
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
