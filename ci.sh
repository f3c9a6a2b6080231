#!/usr/bin/env bash
# The full CI gate, runnable locally; .github/workflows/ci.yml runs this
# script and nothing else. Performance is measured by benchmarks/e2e (see
# benchmarks/e2e/README.md); this gate runs its unit tests and its smoke
# pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> paper claims: every regenerator in release"
# Each bin prints its numbers and exits non-zero when a reproduced
# claim's direction fails (thresholds in each bin's doc comment).
for bin in section2 section3 table1 figure1 section4 section5 dashboard_sim; do
    cargo run --release -q -p eider-bench --bin "$bin"
done

# --no-fail-fast: a red test binary that sorts first must not hide a
# later one.
echo "==> cargo test -q (tier-1: root package)"
cargo test -q --no-fail-fast

echo "==> key encoding and allocation pins, release build"
# The byte-key encoder's integer arithmetic runs without overflow checks in
# release builds; run its order and allocation properties there too.
cargo test --release -q --no-fail-fast --test rowkey_props --test alloc_free_keys

echo "==> serial/parallel equivalence: integration suites at 1, 2, 4 and 8 workers"
# EIDER_THREADS pins the default worker cap, so every query in these
# suites (not just the ones that set PRAGMA threads) runs serial once and
# morsel-parallel three times, on any host including 1-core CI runners.
EIDER_THREADS=1 cargo test -q --no-fail-fast --test parallel_execution --test sql_integration
EIDER_THREADS=2 cargo test -q --no-fail-fast --test parallel_execution --test sql_integration
EIDER_THREADS=4 cargo test -q --no-fail-fast --test parallel_execution --test sql_integration
EIDER_THREADS=8 cargo test -q --no-fail-fast --test parallel_execution --test sql_integration

echo "==> multi-session concurrency harness at 1, 2, 4 and 8 workers"
# The deterministic session storm: N concurrent connections must observe
# bit-identical results vs a serial replay at every fleet size.
EIDER_THREADS=1 cargo test -q --no-fail-fast --test multi_session
EIDER_THREADS=2 cargo test -q --no-fail-fast --test multi_session
EIDER_THREADS=4 cargo test -q --no-fail-fast --test multi_session
EIDER_THREADS=8 cargo test -q --no-fail-fast --test multi_session

echo "==> cargo test --workspace -q"
cargo test --workspace -q --no-fail-fast

echo "==> cargo test --doc --workspace (doc examples execute, incl. docs/EMBEDDING.md)"
cargo test --doc --workspace -q --no-fail-fast

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# --locked: an engine-crate dependency change must fail here instead of
# quietly rewriting benchmarks/e2e/Cargo.lock.
echo "==> benchmarks/e2e: unit tests"
cargo test --offline --locked -q --no-fail-fast --manifest-path benchmarks/e2e/Cargo.toml

echo "==> benchmarks/e2e: smoke pass (every workload and probe, answers checked)"
# The smoke output must also show that a crash right after an acknowledged
# Appender commit loses nothing.
smoke=$(cargo run --release --offline --locked --quiet --manifest-path benchmarks/e2e/Cargo.toml -- --smoke)
echo "$smoke"
if ! grep -qE '^metric etl_durable core\.appender_crash_lost_frac 0( |$)' <<<"$smoke"; then
    echo "FAIL: --smoke did not print 'metric etl_durable core.appender_crash_lost_frac 0'"
    exit 1
fi

echo "CI gate passed."
