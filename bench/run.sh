#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program. Run from the root of a checkout:
#   bash bench/run.sh --workload live_batched --seed 7 --seconds 15 --trace 0
# Build outputs, the Go build cache and the compiler's temporary files
# included, stay inside the checkout under .bench_build/, so the first run in
# a fresh checkout compiles everything (about a minute on two cores) and later
# runs reuse it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ecbench" .)
exec "$build/ecbench" "$@"
