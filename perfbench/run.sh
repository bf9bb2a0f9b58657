#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload dense-warm --seed 1 --seconds 25 --trace 0
#
# The binary and the Go build cache go to .bench_build/ under the root, so
# nothing is written outside the checkout. The build needs the repository's
# sources next to perfbench/; without them it fails and nothing is run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
