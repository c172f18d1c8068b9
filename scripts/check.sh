#!/usr/bin/env bash
# The repo's full local gate, offline-safe: formatting, lints, and the
# tier-1 build+test cycle. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Clippy also holds the repo's code policies (DESIGN.md §9; lists in
# clippy.toml, levels in the root Cargo.toml and crate attributes): no
# unwrap/expect/panic in the serving crates (cfsf-core, cf-obs, cf-serve,
# the cfsf library), no bare std::sync::Mutex or AssertUnwindSafe in
# those crates' production code, no clock read outside
# cf_obs::now_if_enabled in the hot-path modules, and no exact float
# compare outside tests unless it says why.
echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc gate: every intra-doc link resolves, and public docs link to
# no private item, so a deletion cannot leave a dangling link behind.
# The vendored stand-ins for external crates are not ours to document.
echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude proptest --exclude rand \
    --exclude criterion --no-deps --offline

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test"
cargo test --workspace -q --offline

# Analysis gate: the loom-lite model checker runs every built-in model
# exhaustively — including the seeded-race fixture the happens-before
# detector must catch. All models green, or the gate fails. The
# machine-readable report lands at target/analyze.json; under CI ($CI
# set) failures are also emitted as GitHub ::error annotations.
echo "==> cfsf-analyze (concurrency models)"
cargo run -q -p cf-analysis --bin cfsf-analyze --offline -- \
    --json-out target/analyze.json ${CI:+--annotate}

# TSan job: the loom-lite shim layer under ThreadSanitizer, bounded to
# the model targets and a wall-clock budget (TSAN_BUDGET_SECS). Skips
# with exit 0 when no nightly toolchain is installed; gates when one is.
echo "==> tsan: loom-lite model targets under ThreadSanitizer"
./scripts/tsan.sh

# Sharded serving: the multi-process integration test spawns real shard
# and router processes from the built binaries and asserts (a) remote
# answers are bit-for-bit the in-process answers and (b) killing a shard
# mid-load costs zero router errors — users degrade down the ladder.
# It runs in the workspace pass too; calling it out keeps the fleet
# behavior visible as its own gate in CI logs.
echo "==> sharded serving: router + shard processes round-trip"
cargo test --offline -q --test sharded_serving

# Fleet observability: router + shard processes again, this time
# asserting the cross-process trace stitches under one trace id on
# /traces, the merged cfsf_fleet_* series equal the per-shard sums
# within a single scrape, and the SLO engine publishes burn-rate gauges
# and writes BENCH_slo.json.
echo "==> fleet observability: trace propagation + merged metrics + SLOs"
cargo test --offline -q --test fleet_tracing

# Benchmark self-test: every cfbench workload runs briefly, untraced and
# traced, against real router and shard processes. It is the one check
# that compares router batches, top-N and point answers across processes
# bit for bit against the in-process model (a mismatch fails the run),
# and it checks that every metric BENCHMARK.json names is emitted. About
# 45 s once built.
echo "==> benchmark self-test: cross-process answers vs the in-process model"
python3 cfbench/test_quick.py

# Chaos job: the deterministic fault-injection suite. The faultinject
# feature compiles the injection points into cfsf-core, so this runs as
# its own pass (and lints the gated code the default pass never sees).
echo "==> chaos: clippy with fault injection (deny warnings)"
cargo clippy -p cfsf-core --features faultinject --all-targets --offline -- -D warnings

echo "==> chaos: fault-injection suite"
cargo test -p cfsf-core --features faultinject -q --offline

echo "==> chaos: serving tier (shard connection drops)"
cargo clippy -p cf-serve --features faultinject --all-targets --offline -- -D warnings
cargo test -p cf-serve --features faultinject -q --offline

# The incremental-maintenance experiment drives the self-healing model's
# synchronous rebuild and asserts that a batch below the churn threshold
# takes the partial path; the experiment panics (failing the gate) if not.
echo "==> incremental maintenance: experiment smoke (partial rebuild path)"
cargo run -q --release --offline -p cf-eval --bin cfsf-experiments -- \
    incremental --quick --out target/experiments-smoke

# Bench smoke: the criterion stand-in's --test mode runs every routine
# of the four micro-benches exactly once, so a bench that stops compiling
# or panics fails the gate. Plain `cargo test --benches` would measure
# every routine in full instead. A few seconds once built.
echo "==> benches: every criterion routine once"
cargo test -p cfsf-bench --benches -q --offline -- --test

echo "All checks passed."
