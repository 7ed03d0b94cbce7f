#!/usr/bin/env bash
# Builds the runner and executes it with the given flags, from the root of
# the checkout. Everything the build writes (compiler cache, binary) and
# everything a run writes (durable data) stays under .bench_build there.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local \
	go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
