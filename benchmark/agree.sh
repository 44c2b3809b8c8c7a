#!/usr/bin/env bash
# Compares two result files written by run.sh against the bounds in
# BENCHMARK.json (end-to-end metrics) and in the metric registry
# (single-workload headline metrics and exact counts):
#
#   benchmark/agree.sh A.json B.json
#
# One row per (workload, metric): ok / regressed / unresolved. Exit code
# 0 if every row is ok, 1 if anything regressed, 2 if nothing regressed
# but some spread is wider than its bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/quts-benchmark" agree "$@" --bounds "$here/../BENCHMARK.json"
