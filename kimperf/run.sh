#!/usr/bin/env bash
# Builds kimperf from this checkout's sources and runs it with the given
# arguments, from the checkout root:
#
#   bash kimperf/run.sh --workload oo1-nav --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the databases and span files.
# No network: the module has no dependencies outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/kimperf"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/kimperf" build -o "$out/kimperf" .
exec "$out/kimperf" "$@"
