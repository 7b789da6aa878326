#!/usr/bin/env bash
# Builds slipd and the benchmark from the checkout this script sits in,
# then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the daemons' data dirs stay
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$build/slipd" ./cmd/slipd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
