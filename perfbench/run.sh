#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# XDG_CONFIG_HOME keeps the toolchain's own state (telemetry counters) here too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" "$@"
