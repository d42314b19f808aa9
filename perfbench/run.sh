#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload spmv-mix --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOTELEMETRY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
