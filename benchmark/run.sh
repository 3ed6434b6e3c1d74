#!/usr/bin/env bash
# The benchmark's one command. Builds the standalone package in this
# directory (offline, release) and runs it from the repo root.
#
#   benchmark/run.sh [--seed S] [--traced] [--smoke] [--runs K]   every workload, every metric
#   benchmark/run.sh --compare A.json B.json                      judge B against A
#   benchmark/run.sh --selfcheck                                  two sets of one build must agree
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   one run (BENCHMARK.json's command)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# Build products go where CARGO_TARGET_DIR says (the driver sets it), else
# into the ignored benchmark/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Nothing the crates write may reach the tracked BENCH_*.json or results/.
mkdir -p benchmark/out
export PELS_BENCH_DIR="$PWD/benchmark/out"
export PELS_RESULTS_DIR="$PWD/benchmark/out"

tree_state() { git status --porcelain 2>/dev/null || true; }
before="$(tree_state)"
status=0
"$CARGO_TARGET_DIR/release/pels-benchmark" "$@" || status=$?
if [ "$(tree_state)" != "$before" ]; then
    echo "benchmark failed: the run changed the working tree (git status --porcelain differs)" >&2
    exit 1
fi
exit "$status"
