#!/usr/bin/env bash
# Builds cc-serve and the benchmark harness from source, then runs one
# benchmark invocation from the root of a checkout:
#
#   bash perfbench/run.sh --workload point-zipf --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p cc-server --bin cc-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/cc-perfbench" --root "$root" \
    --serve-bin "$target/release/cc-serve" "$@"
