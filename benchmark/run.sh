#!/bin/sh
# The driver's entry point: build the benchmark from source inside the
# checkout, then run it with the driver's arguments. The Go build cache,
# temporary files and the toolchain's own config/telemetry directory are
# kept under .bench_build/ so nothing is written outside the checkout.
set -e
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$GOTMPDIR"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
