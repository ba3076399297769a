#!/usr/bin/env bash
# Builds ndbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/ndbench/run.sh --workload serve-ram --seed 1 --seconds 14 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every file the benchmark writes stay under .bench_build in the
# current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config/go/telemetry"
# The go command reads its telemetry mode from XDG_CONFIG_HOME: with it
# off there, the build writes no counters outside the checkout.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
NDBENCH_COMMIT=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
export NDBENCH_COMMIT

(cd "$here" && go build -o "$out/ndbench" .)
exec "$out/ndbench" --out "$out/ndbench-out" "$@"
