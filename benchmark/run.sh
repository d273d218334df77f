#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload ws-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, the durable store of
# durable-batch, and the span dumps of traced runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$GOTMPDIR"
go -C "$here" build -o "$build/gabench" .
cd "$root"
exec "$build/gabench" -out "$build/out" -data "$build/data" "$@"
