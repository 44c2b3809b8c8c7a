#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (and, through
# its path dependencies, the system under test) in release mode, then
# runs it; every argument goes to the binary:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --seed N [--seconds S] [--repeat R] [--out FILE]
#
# Run it from the repository root. WAL directories, span logs and result
# files go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/quts-benchmark" --out-dir "$here/out" "$@"
