#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh -seed 1
#
# Everything the build writes (binary, Go build cache, module cache, the go
# command's telemetry counters) goes to .bench_build/ inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	go build -C bench -o "$build/dstress-bench" .
exec "$build/dstress-bench" "$@"
