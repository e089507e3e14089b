#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere in the
# checkout:
#
#   bash mtbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, the binary, the census cache
# (see README.md) and the span files of traced runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$root/mtbench"
go build -o "$build/mtbench" .
cd "$root"
exec "$build/mtbench" -workdir "$build" "$@"
