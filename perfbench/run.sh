#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it.
#
#   bash perfbench/run.sh --workload pig-large --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); cargo's own progress goes to stderr so the last
# line of stdout stays the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
