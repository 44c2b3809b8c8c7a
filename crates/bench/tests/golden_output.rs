//! Drift test: the experiment suite's output is a pure function of the
//! code and the scale, so a committed copy pins it. Any change to the
//! workload generator, a scheduler, the simulator, the vendored `rand`
//! or a renderer shows up here as a first differing line — and then
//! `results/run_all_scale1.txt` and `EXPERIMENTS.md` are stale too.

use quts_bench::experiments;

/// Small enough that the whole suite takes a couple of seconds even
/// unoptimized, large enough that every experiment still has traffic.
const SCALE: u32 = 120;

#[test]
fn run_all_output_matches_the_committed_record() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/run_all_scale120.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("read committed golden output");
    let mut out = Vec::new();
    let report = experiments::run_suite(SCALE, 1, &mut out).expect("write to a buffer");
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(report.perfs.len(), experiments::ALL.len());
    let actual = String::from_utf8(out).expect("experiments print UTF-8");
    if actual == golden {
        return;
    }
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "run_all --scale {SCALE} output drifted from results/run_all_scale{SCALE}.txt at line {}:\n  \
         committed: {:?}\n  emitted:   {:?}\n\
         If the change is intended, regenerate both records and re-derive EXPERIMENTS.md:\n  \
         cargo run --release -p quts-bench --bin run_all -- --scale {SCALE} > results/run_all_scale{SCALE}.txt\n  \
         cargo run --release -p quts-bench --bin run_all -- --scale 1 > results/run_all_scale1.txt",
        line + 1,
        golden.lines().nth(line).unwrap_or("<end of file>"),
        actual.lines().nth(line).unwrap_or("<end of file>"),
    );
}
