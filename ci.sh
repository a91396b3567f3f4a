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
    crates/pscd/src crates/machine/src crates/graph/src \
    crates/workload/src | wc -l)
echo "    panic-pattern sites: $count (baseline $baseline)"
if [ "$count" -gt "$baseline" ]; then
    echo "panic audit FAILED: $count sites > baseline $baseline" >&2
    echo "convert new unwrap()/expect(/panic! to typed errors, or justify" >&2
    echo "an invariant with unreachable! instead" >&2
    exit 1
fi

# Prints every non-comment line of crates/*/src/**/*.rs as `file:line: text`,
# stopping each file at its trailing #[cfg(test)] module. The arguments are
# extra `find` tests, e.g. `! -path 'crates/verify/*'` to exempt a crate.
non_test_code() {
    find crates/*/src -name '*.rs' "$@" | sort |
    while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            !/^[[:space:]]*\/\// { print f ":" FNR ": " $0 }' "$f"
    done
}

echo "==> timing ownership (one production timing model)"
# Only crates/sched/src/timing.rs books reservation tables or maps a
# dependence kind to a latency. crates/machine defines the table, and
# crates/verify is the deliberately independent re-derivation. Comment
# lines and the trailing #[cfg(test)] module of each file are exempt.
timing_hits=$(
    non_test_code ! -path 'crates/machine/*' ! -path 'crates/verify/*' \
        ! -path crates/sched/src/timing.rs |
    grep -E 'reservation_table\(\)|next_free_cycle|can_issue\(|DepKind::[A-Za-z]+.*=>' ||
    true
)
if [ -n "$timing_hits" ]; then
    echo "$timing_hits" >&2
    echo "timing ownership FAILED: route issue timing and edge latencies" >&2
    echo "through parsched_sched::timing instead" >&2
    exit 1
fi

echo "==> JSON ownership (one JSON writer)"
# Every emitted JSON document goes through parsched_telemetry::json::Writer,
# which owns escaping and separators: outside crates/telemetry/src/json.rs
# no code may escape a string itself or spell an escaped key literal
# (\"name\":). Comment lines and the trailing #[cfg(test)] module of each
# file are exempt, and so are parsched-loadgen's two deliberately
# malformed chaos lines (a half-written request and a syntax error).
json_hits=$(
    non_test_code ! -path crates/telemetry/src/json.rs |
    grep -E 'escape_json\(|\\"[^"\\]*\\":' |
    grep -vE '^crates/bench/src/bin/loadgen\.rs:[0-9]+: .*write_all\(b"\{\\"id\\": (999999|oops), ' ||
    true
)
if [ -n "$json_hits" ]; then
    echo "$json_hits" >&2
    echo "JSON ownership FAILED: write JSON through" >&2
    echo "parsched_telemetry::json::Writer instead of by hand" >&2
    exit 1
fi

echo "==> Ef ownership (one false-dependence kernel)"
# Every PIG takes its false-dependence edges (Pinter's Ef) from
# parsched_sched::falsedep::for_each_ef_pair: outside
# crates/sched/src/falsedep.rs no code may combine the closure's unordered
# rows or the machine's pairwise conflicts itself. crates/machine defines
# the conflict table, crates/graph the closure query, and crates/verify is
# the deliberately independent re-derivation. Comment lines and the
# trailing #[cfg(test)] module of each file are exempt.
ef_hits=$(
    non_test_code ! -path 'crates/machine/*' ! -path 'crates/graph/*' \
        ! -path 'crates/verify/*' ! -path crates/sched/src/falsedep.rs |
    grep -E 'pairwise_conflict\(|unordered_into\(' ||
    true
)
if [ -n "$ef_hits" ]; then
    echo "$ef_hits" >&2
    echo "Ef ownership FAILED: derive false-dependence edges with" >&2
    echo "parsched_sched::falsedep::for_each_ef_pair instead" >&2
    exit 1
fi

echo "==> compile-loop ownership (one per-function loop)"
# Every surface (psc, pscd, the fuzzer) compiles functions through
# parsched::BatchDriver, which owns the per-function loop, the worker
# sessions and the outer panic net: outside crates/core/src/batch.rs (the
# one caller) and crates/core/src/driver.rs (the definition) no code may
# call Driver::compile_resilient_in. Comment lines and the trailing
# #[cfg(test)] module of each file are exempt.
loop_hits=$(
    non_test_code ! -path crates/core/src/batch.rs ! -path crates/core/src/driver.rs |
    grep -E 'compile_resilient_in\(' ||
    true
)
if [ -n "$loop_hits" ]; then
    echo "$loop_hits" >&2
    echo "compile-loop ownership FAILED: compile through parsched::BatchDriver" >&2
    echo "instead of calling Driver::compile_resilient_in" >&2
    exit 1
fi

echo "==> perfbench-only surface (no new callers)"
# perfbench/src/layers.rs still names four items that nothing else needs:
# the AllocLimits alias of Budget, the GlobalStrategy alias of
# BlockStrategy, AllocSession::set_closure_mode and
# Reachability::backend_label. In crates/, tests/ and examples/ each may
# appear only on its definition line and its lib.rs re-export, so the
# change that unfreezes perfbench can delete them by editing perfbench
# alone. Comment lines are exempt.
surface_hits=$(
    grep -rnE '\b(AllocLimits|GlobalStrategy|set_closure_mode|backend_label)\b' \
        crates tests examples --include='*.rs' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE '^crates/regalloc/src/limits\.rs:[0-9]+:pub type AllocLimits = Budget;$' |
    grep -vE '^crates/regalloc/src/lib\.rs:[0-9]+:pub use limits::\{AllocLimits, ' |
    grep -vE '^crates/regalloc/src/global\.rs:[0-9]+:pub type GlobalStrategy = BlockStrategy;$' |
    grep -vE '^crates/regalloc/src/session\.rs:[0-9]+:    pub fn set_closure_mode\(' |
    grep -vE '^crates/graph/src/reachability\.rs:[0-9]+:    pub fn backend_label\(' ||
    true
)
if [ -n "$surface_hits" ]; then
    echo "$surface_hits" >&2
    echo "perfbench-only surface FAILED: use Budget, BlockStrategy and the" >&2
    echo "session's own closure choice instead of these compatibility names" >&2
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

echo "==> rustdoc (warnings are errors: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" timeout 600 cargo doc --no-deps --workspace --offline

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

echo "==> chaos gate (pscd daemon vs parsched-loadgen, must stay under 30s)"
# Start the daemon on a throwaway socket, hammer it with the seeded chaos
# workload, and require both to exit cleanly: the loadgen exits nonzero on
# a daemon crash, an unanswered accepted request, or a cache hit whose
# bytes differ from the cold response; the daemon exits nonzero if the
# drain fails. A first run without --shutdown must exit on its own once
# every request is answered; the second run's --shutdown makes the
# loadgen end the daemon, so the daemon's exit is part of the gate.
chaos_sock=$(mktemp -u /tmp/parsched-chaos.XXXXXX.sock)
./target/release/pscd --listen "$chaos_sock" 2> /dev/null &
chaos_pid=$!
for _ in $(seq 1 50); do
    [ -S "$chaos_sock" ] && break
    sleep 0.1
done
if ! timeout 30 ./target/release/parsched-loadgen --socket "$chaos_sock" \
    --branchy --seed 3 --requests 200 > /dev/null; then
    kill "$chaos_pid" 2> /dev/null || true
    echo "chaos gate FAILED: loadgen without --shutdown did not exit cleanly" >&2
    exit 1
fi
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

echo "==> benchmark smoke (perfbench: every check, throughput floor)"
# A 1-second perfbench run per workload (see perfbench/METRICS.md). Each
# run checks oracle equivalence, determinism across passes and worker
# counts, the strategy kept and exact-solver anomalies; perfbench exits 0
# even when a check fails, so the step reads "correct" from the result
# line itself. The throughput floor catches order-of-magnitude compile-time
# regressions (an accidental O(n^3)), not percent-level drift. Each floor
# is a median compile_insts_per_s on a 2-vCPU x86-64 VM divided by 2.5,
# the slowdown ratio the retired compare-against-baseline gate allowed.
# The pig-large and spill-tight medians are those measured for the change
# that made register dependences killing and interference graphs bit rows
# (seed 1, 10 s, --trace 0, interleaved with its parent): 115.7 k
# (6 pairs) and 34.7 k insts/s (10 pairs), each past its parent's
# quartile spread (parent medians 95.4 k and 27.3 k). The gap-small
# median is the one measured for the change that made the exact solver
# pay only for its search (seed 1, 20 s, --trace 0, 10 interleaved
# pairs): 136.4 k insts/s against its parent's 74.3 k.
# Each run includes building perfbench (release, offline) on first use;
# the build must leave the frozen perfbench/Cargo.lock as it was.
lock_before=$(cksum < perfbench/Cargo.lock)
bench_out=$(mktemp /tmp/parsched-bench-smoke.XXXXXX)
for spec in pig-large:46200 spill-tight:13800 gap-small:54500; do
    workload=${spec%%:*}
    floor=${spec#*:}
    if ! timeout 120 bash perfbench/run.sh --workload "$workload" --seed 0 \
        --seconds 1 --trace 0 > "$bench_out"; then
        echo "benchmark smoke FAILED: $workload run did not finish cleanly" >&2
        exit 1
    fi
    result=$(tail -n 1 "$bench_out")
    case "$result" in
    *'"correct": true'*) ;;
    *)
        echo "benchmark smoke FAILED: $workload run is not correct: $result" >&2
        exit 1
        ;;
    esac
    rate=$(printf '%s\n' "$result" |
        sed -n 's/.*"compile_insts_per_s": {"value": \([0-9.eE+-]*\).*/\1/p')
    if ! awk -v r="$rate" -v f="$floor" 'BEGIN { exit !(r != "" && r + 0 >= f) }'; then
        echo "benchmark smoke FAILED: $workload compile_insts_per_s" \
            "${rate:-missing} < floor $floor" >&2
        exit 1
    fi
    echo "    $workload: correct, compile_insts_per_s $rate (floor $floor)"
done
rm -f "$bench_out"
if [ "$(cksum < perfbench/Cargo.lock)" != "$lock_before" ]; then
    echo "benchmark smoke FAILED: building perfbench rewrote perfbench/Cargo.lock" >&2
    exit 1
fi

echo "CI OK"
