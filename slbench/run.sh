#!/usr/bin/env bash
# Runs the safety-level server benchmark from the root of a checkout:
#
#   bash slbench/run.sh --workload batch-q20 --seed 1 --seconds 30 --trace 0
#
# Every build product (Go build cache, temporary files, the slserve
# binary, trace spans) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/slbench"
exec go run . -root "$root" -out "$out" "$@"
