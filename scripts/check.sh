#!/usr/bin/env bash
# Local CI gate: formatting, lints, static analysis, the full test suite,
# the chaos soak, the trace-export smoke, the state-statistics smoke, the
# end-to-end benchmark's correctness run, the WAL kill-restart durability
# soak, the watermark/freshness smoke, the ThreadSanitizer pass, and the
# end-to-end benchmark's own self-tests.
# Usage: scripts/check.sh [--fix] [--list] [--only STEP]
#   --fix         apply rustfmt instead of only checking
#   --list        print the runnable step names, one per line, and exit
#   --only STEP   run a single step (what the CI jobs call)
#
# Exit-code contract: there is deliberately no `set -e`. Every step function
# chains its commands with `&&` so the function's status is the first
# failing command's status, and the dispatcher captures that status and
# exits with it verbatim. CI proves the plumbing with the hidden
# `selftest-fail` step, which must make this script exit 42.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

steps="fmt clippy lint test chaos trace stats bench durability freshness tsan perfbench"

fix=0
only=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --fix) fix=1; shift ;;
        --list)
            # shellcheck disable=SC2086
            printf '%s\n' $steps
            exit 0
            ;;
        --only)
            only="${2:-}"
            if [[ -z "$only" ]]; then
                echo "--only requires an argument: ${steps// /|}" >&2
                exit 2
            fi
            shift 2
            ;;
        *)
            echo "unknown argument '$1' (usage: scripts/check.sh [--fix] [--list] [--only ${steps// /|}])" >&2
            exit 2
            ;;
    esac
done

run_fmt() {
    if [[ "$fix" == 1 ]]; then
        echo "==> cargo fmt" &&
            cargo fmt --all
    else
        echo "==> cargo fmt --check" &&
            cargo fmt --all -- --check
    fi
}

run_clippy() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings" &&
        cargo clippy --workspace --all-targets -- -D warnings
}

run_lint() {
    # squery-lint: the workspace's own static analysis (SQ001 lock-order
    # cycles, SQ002 panic hygiene, SQ003 telemetry-name registry, SQ004
    # unsafe audit, SQ005 blocking-under-lock, SQ006 clock-domain taint,
    # SQ007 atomics handoff audit). Gate is zero findings; the binary
    # prints a pass-by-pass summary before the total.
    echo "==> squery-lint" &&
        cargo run --release -q -p squery-lint --bin squery-lint -- --root .
}

run_test() {
    echo "==> cargo test --workspace -q" &&
        cargo test --workspace -q
}

run_chaos() {
    # Fixed seed range inside a fixed time budget: a deterministic soak of
    # the fault-injection + supervised-recovery path (~60 s ceiling).
    # SQUERY_LOCK_ORDER=1 arms the runtime lock-order tracker (DESIGN.md
    # §9): any rank inversion fails the seed via check_lock_order_clean.
    echo "==> chaos soak (100 seeds, 60 s budget)" &&
        SQUERY_LOCK_ORDER=1 cargo run --release -q -p squery-bench --bin chaos -- \
            --seeds 100 --base-seed 1 --time-budget-secs 60
}

run_trace() {
    # Trace-export smoke: run a traced fig13-style query round at dop 4,
    # export the span log as Chrome trace-event JSON, and validate that the
    # file parses and the checkpoint phase-1/phase-2 spans nest under their
    # round's root span.
    local out="${TRACE_JSON:-target/trace.json}"
    echo "==> trace smoke (fig13 workload, dop 4, -> $out)" &&
        mkdir -p "$(dirname "$out")" &&
        cargo run --release -q -p squery-bench --bin paper-figures -- \
            --quick --dop 4 --trace-json "$out" &&
        python3 - "$out" <<'EOF'
import json, sys

path = sys.argv[1]
events = json.load(open(path))["traceEvents"]
assert events, "trace export is empty"
for e in events:
    for field in ("name", "ph", "ts", "dur", "pid", "tid"):
        assert field in e, f"event missing {field}: {e}"
by_kind = {}
for e in events:
    by_kind.setdefault(e["name"], []).append(e)
for kind in ("checkpoint_round", "checkpoint_phase1", "checkpoint_phase2", "query"):
    assert by_kind.get(kind), f"no {kind} spans in the trace"
rounds = by_kind["checkpoint_round"]
for phase in by_kind["checkpoint_phase1"] + by_kind["checkpoint_phase2"]:
    parents = [
        r for r in rounds
        if r["tid"] == phase["tid"]
        and r["ts"] <= phase["ts"]
        and phase["ts"] + phase["dur"] <= r["ts"] + r["dur"]
    ]
    assert parents, f"phase span does not nest under a round: {phase}"
print(
    f"trace OK: {len(events)} spans, {len(rounds)} checkpoint round(s), "
    f"phases nested"
)
EOF
}

run_stats() {
    # State-statistics smoke: skewed population through the accounting +
    # sampler pipeline, asserting partition counts match real scans at
    # DOP 1/4, the planted hot key surfaces, EXPLAIN carries est_rows,
    # and the JSON dump is well-formed.
    local out="${STATS_JSON:-target/stats.json}"
    echo "==> stats smoke (-> $out)" &&
        cargo run --release -q -p squery-bench --bin stats-watch -- \
            --smoke --json "$out"
}

run_bench() {
    # End-to-end correctness gate: the BENCHMARK.json command (perfbench/,
    # the real q-commerce job) once per workload at a fixed seed. perfbench
    # exits non-zero on any oracle mismatch (row counts, Q1-Q4 at DOP 1 and
    # 2) or failed operation. There is no timing threshold: performance
    # regressions are judged by paired parent/change runs of the same
    # command, not by one run against a committed figure.
    local w
    for w in query mixed; do
        echo "==> bench: perfbench --workload $w --seed 1 --seconds 30 --trace 0" &&
            cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
                --workload "$w" --seed 1 --seconds 30 --trace 0 ||
            return $?
    done
}

run_durability() {
    # WAL kill-restart soak: 25 seeds, each crashing a WAL-backed job at a
    # seeded fault point (after seal / torn delta / before seal / mid-
    # compaction), cold-starting a fresh system from the log alone, and
    # comparing the recovered snapshot byte-for-byte against the pre-kill
    # fingerprint. Writes per-seed fingerprints to $DURABILITY_JSON for the
    # CI artifact. SQUERY_LOCK_ORDER=1 arms the lock-order tracker so the
    # WalSegment rank is checked under real recovery traffic.
    local out="${DURABILITY_JSON:-target/durability.json}"
    echo "==> durability soak (25 seeds, kill + cold restart, -> $out)" &&
        mkdir -p "$(dirname "$out")" &&
        SQUERY_LOCK_ORDER=1 DURABILITY_JSON="$out" \
            cargo run --release -q -p squery-bench --bin durability -- \
            --seeds 25 --base-seed 1 --time-budget-secs 120
}

run_freshness() {
    # Watermark/freshness smoke: NEXMark q6 under paced load, three explicit
    # checkpoint rounds, asserting non-decreasing sealed watermarks,
    # sys_freshness consistent with the committed sys_snapshots set, live
    # frontiers at or ahead of the seal, and the EXPLAIN ANALYZE staleness
    # annotation. Writes the per-round lag report to $LAG_JSON for the CI
    # artifact.
    local out="${LAG_JSON:-target/lag.json}"
    echo "==> freshness smoke (NEXMark q6, 3 checkpoint rounds, -> $out)" &&
        cargo run --release -q -p squery-bench --bin lag-watch -- \
            --smoke --json "$out"
}

run_tsan() {
    # ThreadSanitizer pass (DESIGN.md §9): the streaming crate's unit tests
    # (checkpoint + worker handoffs), the worker pool's own tests
    # (squery_common::morsel) and the SQL executor's morsel-driven tests
    # (exec::tests::parallel_*), and two short chaos seed slices, compiled
    # with -Zsanitizer=thread. The prebuilt std is uninstrumented — hence
    # -Cunsafe-allow-abi-mismatch and the libtest-channel suppressions in
    # scripts/tsan.supp; every squery crate IS instrumented and never
    # suppressed. Builds into target/tsan so sanitized artifacts don't mix
    # with the normal cache. Skips (exit 0) when no nightly toolchain is
    # installed, since -Zsanitizer is nightly-only.
    local log="${TSAN_LOG:-target/tsan/tsan.log}"
    if ! cargo +nightly --version >/dev/null 2>&1; then
        echo "==> tsan: no nightly toolchain installed, skipping (-Zsanitizer is nightly-only)"
        return 0
    fi
    local rustflags="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
    local topts="suppressions=$PWD/scripts/tsan.supp"
    local host
    host=$(rustc -vV | sed -n 's/^host: //p')
    echo "==> tsan (streaming unit tests + worker pool + morsel executor + chaos slices, -> $log)" &&
        mkdir -p "$(dirname "$log")" &&
        RUSTFLAGS="$rustflags" CARGO_TARGET_DIR=target/tsan TSAN_OPTIONS="$topts" \
            cargo +nightly test --offline -q -p squery-streaming --lib \
            --target "$host" -- --nocapture 2>&1 | tee "$log" &&
        RUSTFLAGS="$rustflags" CARGO_TARGET_DIR=target/tsan TSAN_OPTIONS="$topts" \
            cargo +nightly test --offline -q -p squery-common --lib \
            --target "$host" -- morsel:: 2>&1 | tee -a "$log" &&
        RUSTFLAGS="$rustflags" CARGO_TARGET_DIR=target/tsan TSAN_OPTIONS="$topts" \
            cargo +nightly test --offline -q -p squery-sql --lib \
            --target "$host" -- exec::tests::parallel_ 2>&1 | tee -a "$log" &&
        RUSTFLAGS="$rustflags" CARGO_TARGET_DIR=target/tsan TSAN_OPTIONS="$topts" \
            cargo +nightly run --offline -q -p squery-bench --bin chaos \
            --target "$host" -- --seeds 3 --base-seed 1 --time-budget-secs 120 \
            2>&1 | tee -a "$log" &&
        # Seeds 5 and 6 draw the snapshot-writer fault (a stall, then a
        # writer death mid-capture): the background capture under TSan.
        RUSTFLAGS="$rustflags" CARGO_TARGET_DIR=target/tsan TSAN_OPTIONS="$topts" \
            cargo +nightly run --offline -q -p squery-bench --bin chaos \
            --target "$host" -- --seeds 2 --base-seed 5 --time-budget-secs 120 \
            2>&1 | tee -a "$log"
}

run_perfbench() {
    # The end-to-end benchmark (perfbench/, the package BENCHMARK.json runs)
    # lives outside the workspace, so the workspace steps never build it:
    # run its self-tests and hold it to the same clippy gate.
    echo "==> perfbench tests + clippy -D warnings" &&
        cargo test --offline --manifest-path perfbench/Cargo.toml &&
        cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
}

run_selftest_fail() {
    # Hidden step, not in --list: CI's negative test that a failing step's
    # exit code really reaches the caller. Must exit 42.
    echo "==> selftest-fail (this step always fails with exit 42)" &&
        return 42
}

rc=0
case "$only" in
    "") run_fmt && run_clippy && run_lint && run_test; rc=$? ;;
    fmt) run_fmt; rc=$? ;;
    clippy) run_clippy; rc=$? ;;
    lint) run_lint; rc=$? ;;
    test) run_test; rc=$? ;;
    chaos) run_chaos; rc=$? ;;
    trace) run_trace; rc=$? ;;
    stats) run_stats; rc=$? ;;
    bench) run_bench; rc=$? ;;
    durability) run_durability; rc=$? ;;
    freshness) run_freshness; rc=$? ;;
    tsan) run_tsan; rc=$? ;;
    perfbench) run_perfbench; rc=$? ;;
    selftest-fail) run_selftest_fail; rc=$? ;;
    *)
        echo "unknown step '$only' (known: ${steps// /, })" >&2
        exit 2
        ;;
esac

if [[ "$rc" -ne 0 ]]; then
    echo "check failed with exit $rc" >&2
    exit "$rc"
fi
echo "All checks passed."
