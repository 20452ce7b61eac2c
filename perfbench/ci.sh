#!/usr/bin/env bash
# Checks for the benchmark package, for ci.yml to call: format, lints,
# unit tests, a short run of all six workloads, and a compare of that
# run against itself (which must not breach).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt -- --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release

cd ..
cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --seconds 2 --trace-seconds 2
result=target/perfbench/result.json
cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    compare "$result" "$result"
