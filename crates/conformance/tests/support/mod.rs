//! Shared helpers for the conformance integration tests: artifact
//! output, per-test timing export, and shrink-and-persist on failure.
//!
//! Each integration-test binary compiles its own copy and uses a
//! subset of the helpers.
#![allow(dead_code)]

use quts_conformance::{run_differential, shrink_divergent, ConfTrace, Envelope};
use quts_engine::LivePolicy;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ARTIFACT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where divergence repros go: `$QUTS_CONF_ARTIFACTS` when set (the CI
/// job uploads it), a per-process temp dir otherwise.
pub fn artifact_dir() -> PathBuf {
    let dir = std::env::var_os("QUTS_CONF_ARTIFACTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("quts-conformance-{}", std::process::id()))
        });
    std::fs::create_dir_all(&dir).expect("artifact dir creatable");
    dir
}

/// Shrinks a divergent trace and writes the minimised JSONL repro;
/// returns its path. Used on test failure so the CI artifact always
/// carries a small, replayable counterexample.
pub fn shrink_and_save(
    env: &Envelope,
    policy: LivePolicy,
    trace: &ConfTrace,
    label: &str,
) -> PathBuf {
    let shrunk = shrink_divergent(trace, |t| !run_differential(env, policy, t).is_clean());
    let n = ARTIFACT_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = artifact_dir().join(format!(
        "{label}-{}-seed{}-{n}.jsonl",
        policy.label(),
        trace.seed
    ));
    std::fs::write(&path, shrunk.to_jsonl()).expect("write repro");
    path
}

/// Appends a `name,millis` line to `$QUTS_CONF_TIMINGS` when set; the
/// CI job publishes the file so slow conformance tests are visible.
pub fn record_timing(name: &str, elapsed: Duration) {
    let Some(path) = std::env::var_os("QUTS_CONF_TIMINGS") else {
        return;
    };
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(f, "{name},{}", elapsed.as_millis());
    }
}
