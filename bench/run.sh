#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's command): build
# ./bench with the Go toolchain's caches kept inside the checkout, so
# nothing is written outside it, then run it with the driver's flags.
# By hand, `go run ./bench` does the same with the user's own caches.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
