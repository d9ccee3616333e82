#!/usr/bin/env bash
# The one command of the reference benchmark: build the server binary and the
# benchmark from this checkout, run, verify every response, print every
# metric. See benchmark/README.md.
#
#   benchmark/run.sh                      all four workloads, both modes
#   benchmark/run.sh --quick              the same in ~20 s (harness check)
#   benchmark/run.sh --workload matmul1 --seed 7 --seconds 24 --trace 0
#   benchmark/run.sh --repeat 10 --workload logs --trace 0   (calibration)
#   benchmark/run.sh compare out/a.json out/b.json
#   benchmark/run.sh manifest > BENCHMARK.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds; an absolute path, because the two
# manifests live in different directories.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The system under test is the real server binary. Neither build is part of
# any measured time.
cargo build --release --offline --quiet -p dandelion-server --bin dandelion-serve
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

case "${1:-}" in
    compare | manifest) exec "$target/release/dandelion-benchmark" "$@" ;;
    *) exec "$target/release/dandelion-benchmark" run --server-bin "$target/release/dandelion-serve" "$@" ;;
esac
