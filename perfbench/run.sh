#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 26 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files, exact-count records) goes under .bench_build/perfbench.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
