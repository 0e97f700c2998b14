#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# Zerber checkout:  bash zbench/run.sh --workload search-full --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/zbench/go.mod" ]]; then
	echo "zbench: run from the root of a Zerber checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd "$root/zbench" && go build -o "$build/zbench" .)
exec "$build/zbench" "$@"
