//! `--scale` / `QUTS_SCALE` at the process boundary: a present but
//! unparsable scale must stop the binary (exit 2, nothing on stdout)
//! instead of silently running the full 30-minute suite.

use std::process::Command;

fn table3() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table3_workload"));
    cmd.env_remove("QUTS_SCALE");
    cmd
}

#[test]
fn an_unparsable_scale_exits_2_before_running_anything() {
    let runs = [
        table3().args(["--scale", "12O"]).output(),
        table3().args(["--scale", "0"]).output(),
        table3().arg("--scale").output(),
        table3().env("QUTS_SCALE", "fast").output(),
    ];
    for run in runs {
        let run = run.expect("spawn table3_workload");
        assert_eq!(run.status.code(), Some(2), "{run:?}");
        assert!(run.stdout.is_empty(), "{run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("expected a positive integer"), "{stderr}");
    }
}

#[test]
fn a_valid_scale_runs_at_that_scale() {
    let run = table3()
        .args(["--scale", "600"])
        .output()
        .expect("spawn table3_workload");
    assert!(run.status.success(), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("scaled down by 600x"), "{stdout}");
}
