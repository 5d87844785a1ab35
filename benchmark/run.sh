#!/usr/bin/env bash
# The repo benchmark. Builds the worker binary (repository workspace) and the
# benchmark binary (this stand-alone package), then runs the benchmark.
#
#   benchmark/run.sh                        every workload, untraced
#   benchmark/run.sh --trace                ... and a traced run of each
#   benchmark/run.sh --sets 5 --out A.json  five sets, seeds N..N+4
#   benchmark/run.sh --workload cluster --seed 7 --seconds 20 --trace 0
#   benchmark/run.sh --smoke                scaled-down run of everything
#   benchmark/run.sh --compare A.json B.json
#
# Run it from the repository root. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, so the worker's path is known and
# the shared crates compile once. A relative CARGO_TARGET_DIR means relative
# to the repository root, whichever manifest cargo is pointed at.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries the results.
cargo build --release --offline --quiet -p warplda-dist --bin warplda-dist-worker 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/warplda-benchmark" \
    --worker-bin "$target/release/warplda-dist-worker" "$@"
