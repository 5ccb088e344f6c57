#!/usr/bin/env bash
# Build bench_e2e from this checkout and run it with the given arguments.
#   benchmark/run.sh --seed 1                      the whole suite
#   benchmark/run.sh --workload chat_decode --seed 1 --seconds 12 --trace 0
#   benchmark/run.sh compare benchmark/out/a benchmark/out/b
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so that a run's last stdout line stays the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/bench_e2e" "$@"
