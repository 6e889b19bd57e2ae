#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#
# The build cache and the binary live in .bench_build, so nothing is
# written outside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
