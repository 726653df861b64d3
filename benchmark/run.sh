#!/usr/bin/env bash
# The szhi benchmark, one command. Run from the repository root:
#
#   benchmark/run.sh [--seed N] [--out DIR] [--quick]
#       all four workloads, untraced then traced; prints every metric,
#       writes DIR/results.json and DIR/trace.json (default benchmark/out)
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is its JSON result
#
# Both build `szhi-cli` (root workspace) and `szhi-benchmark` in release mode
# first. Build time is not part of any metric.
set -euo pipefail

here="$(dirname "$0")"
# One target directory for both builds, inside the benchmark's own tree
# unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" -p szhi-cli --bin szhi-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="$CARGO_TARGET_DIR/release/szhi-benchmark"
cli="$CARGO_TARGET_DIR/release/szhi-cli"
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --cli "$cli" --work "$here/out/work" "$@"
    fi
done
exec python3 "$here/suite.py" --bin "$bin" --cli "$cli" "$@"
