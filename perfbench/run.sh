#!/usr/bin/env bash
# Builds iobfleetd, iobfleet and the benchmark from the source tree it
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload small-sweeps --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes lands in .bench_build at the repository
# root (or in $CARGO_TARGET_DIR when that is set), the Go build cache
# included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/" ./cmd/iobfleetd ./cmd/iobfleet
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out" "$@"
