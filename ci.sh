#!/bin/sh
# Local CI: formatting, lints, the panic-audit ratchet, and the tier-1
# gate (release build + tests). Runs fully offline — the workspace has no
# external dependencies.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> panic audit (ratchet)"
# Count unwrap()/expect(/panic! sites in the hardened crates. The count
# may only go down: lower the baseline when you remove sites; never raise
# it. (unreachable! is exempt — it states an impossibility, not a
# recoverable failure.)
baseline=$(cat ci/panic-baseline.txt)
count=$(grep -rE 'unwrap\(\)|expect\(|panic!' \
    crates/ir/src crates/sched/src crates/regalloc/src crates/core/src \
    crates/exact/src crates/verify/src crates/telemetry/src \
    crates/pscd/src crates/machine/src | wc -l)
echo "    panic-pattern sites: $count (baseline $baseline)"
if [ "$count" -gt "$baseline" ]; then
    echo "panic audit FAILED: $count sites > baseline $baseline" >&2
    echo "convert new unwrap()/expect(/panic! to typed errors, or justify" >&2
    echo "an invariant with unreachable! instead" >&2
    exit 1
fi

echo "==> timing ownership (one production timing model)"
# Only crates/sched/src/timing.rs books reservation tables or maps a
# dependence kind to a latency. crates/machine defines the table, and
# crates/verify is the deliberately independent re-derivation. Comment
# lines and the trailing #[cfg(test)] module of each file are exempt.
timing_hits=$(
    find crates/*/src -name '*.rs' ! -path 'crates/machine/*' \
        ! -path 'crates/verify/*' ! -path crates/sched/src/timing.rs | sort |
    while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            !/^[[:space:]]*\/\// { print f ":" FNR ": " $0 }' "$f"
    done |
    grep -E 'reservation_table\(\)|next_free_cycle|can_issue\(|DepKind::[A-Za-z]+.*=>' ||
    true
)
if [ -n "$timing_hits" ]; then
    echo "$timing_hits" >&2
    echo "timing ownership FAILED: route issue timing and edge latencies" >&2
    echo "through parsched_sched::timing instead" >&2
    exit 1
fi

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> resilience suite (must finish within 60s — hang guard)"
timeout 60 cargo test -q --offline -p parsched-pscd --test resilience

echo "==> tier-1: cargo test -q (10-minute hang guard)"
timeout 600 cargo test -q --offline

echo "==> doc tests"
timeout 300 cargo test -q --doc --offline --workspace

echo "==> fuzz smoke (corpus replay + seeded sweep over every rung)"
# Replay previously-found bugs first, then a fixed-seed fresh sweep.
# Both are deterministic and together stay well under 30 seconds.
timeout 30 cargo run -q --release --offline -p parsched-verify -- \
    replay ci/fuzz-corpus/*.psc
fuzz_dir=$(mktemp -d /tmp/parsched-fuzz-smoke.XXXXXX)
timeout 30 cargo run -q --release --offline -p parsched-verify -- \
    fuzz --seed 0 --count 60 --out "$fuzz_dir"
# Branchy/loopy sweep: --cfg makes every case a multi-block function, so
# the global (web-based) allocation path is fuzzed on each run.
timeout 30 cargo run -q --release --offline -p parsched-verify -- \
    fuzz --cfg --seed 0 --count 60 --out "$fuzz_dir"
rm -rf "$fuzz_dir"

echo "==> optimality-gap smoke (exact solver vs every heuristic rung)"
# Every case's exact output must pass all checkers + the oracle, and no
# heuristic may beat a proven optimum (exit 1 on either). 60 cases keep
# this deterministic sweep well under the 30-second bound.
gap_out=$(mktemp /tmp/parsched-gap-smoke.XXXXXX.json)
timeout 30 cargo run -q --release --offline -p parsched-verify -- \
    fuzz --gap --seed 0 --count 60 --gap-out "$gap_out" > /dev/null
rm -f "$gap_out"

echo "==> perf smoke (combined compile must stay incremental)"
# One spill-heavy combined compile under a recorder; fails if the
# session PIG never ran (pig.rounds = 0) or spill rounds fell back to
# full closure rebuilds (pig.full_rebuilds > 1).
timeout 30 cargo run -q --release --offline -p parsched-bench -- \
    --perf-smoke

echo "==> smoke bench (tiny sweep; output must self-validate)"
smoke_out=$(mktemp /tmp/parsched-smoke-bench.XXXXXX.json)
timeout 30 cargo run -q --release --offline -p parsched-bench -- \
    --smoke --out "$smoke_out"
timeout 30 cargo run -q --release --offline -p parsched-bench -- \
    --check "$smoke_out"

echo "==> chaos gate (pscd daemon vs parsched-loadgen, must stay under 30s)"
# Start the daemon on a throwaway socket, hammer it with the seeded chaos
# workload, and require both to exit cleanly: the loadgen exits nonzero on
# a daemon crash, an unanswered accepted request, or a cache hit whose
# bytes differ from the cold response; the daemon exits nonzero if the
# drain fails. --shutdown makes the loadgen end the run, so the daemon's
# exit is part of the gate.
chaos_sock=$(mktemp -u /tmp/parsched-chaos.XXXXXX.sock)
./target/release/pscd --listen "$chaos_sock" 2> /dev/null &
chaos_pid=$!
for _ in $(seq 1 50); do
    [ -S "$chaos_sock" ] && break
    sleep 0.1
done
if ! timeout 30 ./target/release/parsched-loadgen --socket "$chaos_sock" \
    --chaos --branchy --seed 0 --requests 500 --rps 500 --shutdown \
    > /dev/null; then
    kill "$chaos_pid" 2> /dev/null || true
    echo "chaos gate FAILED: loadgen reported contract violations" >&2
    exit 1
fi
if ! wait "$chaos_pid"; then
    echo "chaos gate FAILED: pscd did not drain cleanly" >&2
    exit 1
fi
rm -f "$chaos_sock"

echo "==> perf-regression gate (smoke run vs committed baseline)"
# The smoke corpus differs from the full baseline's, so --compare falls
# back to throughput (insts/sec), which is corpus-size-invariant. The
# loose 2.5x threshold absorbs host differences; it exists to catch
# order-of-magnitude regressions (an accidental O(n^3) reintroduction),
# not percent-level drift.
timeout 30 cargo run -q --release --offline -p parsched-bench -- \
    --compare BENCH_parallel.json "$smoke_out" --threshold 2.5 \
    > /dev/null
rm -f "$smoke_out"

echo "CI OK"
