#!/usr/bin/env bash
# ThreadSanitizer pass over the loom-lite model targets (the scheduler,
# the checked shim layer, and every built-in model), run as a step of
# scripts/check.sh.
#
# TSan needs a nightly toolchain with the rustc -Zsanitizer flag and a
# rebuilt std (-Zbuild-std). When that toolchain is missing this script
# SKIPS with exit 0 — the deterministic loom-lite gate in cfsf-analyze
# is the always-on line of defense. When the toolchain IS present the
# script GATES: the shim layer is the foundation every model-checking
# result rests on, and a TSan finding there is real concurrency UB.
#
# The run is bounded to the loom-lite targets (not the workspace) and
# by a wall-clock budget, TSAN_BUDGET_SECS (default 600): sanitized
# exhaustive exploration is slow, and a hung sanitizer must fail the
# check, not wedge CI.
set -uo pipefail
cd "$(dirname "$0")/.."

TSAN_BUDGET_SECS="${TSAN_BUDGET_SECS:-600}"

if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
    echo "tsan: no nightly toolchain installed; skipping (exit 0)"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
    echo "tsan: nightly rust-src not installed (needed for -Zbuild-std); skipping (exit 0)"
    exit 0
fi

host="$(rustc -vV | sed -n 's/^host: //p')"
echo "tsan: loom-lite model targets under ThreadSanitizer ($host, budget ${TSAN_BUDGET_SECS}s)"

run_target() {
    # $@ = cargo test target selection within cf-analysis.
    RUSTFLAGS="-Zsanitizer=thread" timeout "$TSAN_BUDGET_SECS" \
        cargo +nightly test -Zbuild-std --target "$host" -p cf-analysis "$@" -q
}

status=0
# The scheduler + shim + model unit tests, then the seed-replay suite.
run_target --lib || status=$?
if [ "$status" -eq 0 ]; then
    run_target --test loomlite || status=$?
fi

if [ "$status" -eq 124 ]; then
    echo "tsan: FAILED — wall-clock budget of ${TSAN_BUDGET_SECS}s exceeded" >&2
    echo "tsan: raise TSAN_BUDGET_SECS or shrink the model tree" >&2
    exit 1
fi
if [ "$status" -ne 0 ]; then
    echo "tsan: FAILED — ThreadSanitizer reported findings in the shim layer" >&2
    echo "tsan: reproduce the interleaving deterministically with:" >&2
    echo "tsan:   cargo run -p cf-analysis --bin cfsf-analyze -- --replay <model> <c0,c1,...>" >&2
    echo "tsan: (the failing test's output prints the model name and schedule)" >&2
    exit 1
fi
echo "tsan: clean"
