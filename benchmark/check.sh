#!/usr/bin/env bash
# Build the benchmark offline, run its unit tests and a smoke run of every
# workload, and check that the result file and BENCHMARK.json agree.
# What a CI job calls; run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }
bench run --smoke --out benchmark/out/smoke.json
bench validate benchmark/out/smoke.json
echo "benchmark check: ok"
