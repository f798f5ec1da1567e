#!/usr/bin/env bash
# The one command named in /BENCHMARK.json. Builds the benchmark from
# source (offline, release) and hands every argument to it:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S]      every workload, untraced
#                                                  then traced -> out/result.json
#   benchmark/run.sh --compare A.json B.json
#
# Run it from the repository root.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perf" "$@"
