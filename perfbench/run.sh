#!/usr/bin/env bash
# Builds fleetd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest-light --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binaries, the daemons'
# temp dirs and the span files of traced runs.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root" && go build -buildvcs=false -o "$build/fleetd" ./cmd/fleetd) >&2
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" -fleetd "$build/fleetd" -workdir "$build/tmp" "$@"
