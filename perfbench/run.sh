#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload solve-local --seed 1 --seconds 20 --trace 0
#
# The Go build cache and every file the benchmark writes stay under
# .bench_build/ in the checkout. Outside a full checkout (no ../go.mod for
# the module replace) the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/home"

env GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off \
	go -C "$root/perfbench" build -o "$build/perfbench" .

exec "$build/perfbench" "$@"
