#!/usr/bin/env bash
# Builds cmd/dido-server and the benchmark from the tree this script sits in,
# then runs the benchmark with the given arguments. Everything it writes
# (binaries, Go build cache, run records) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/dido-server" ./cmd/dido-server
(cd benchmark && go build -o "$build/dido-benchmark" .)
exec "$build/dido-benchmark" -root . -server "$build/dido-server" "$@"
