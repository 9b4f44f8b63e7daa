#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# ignored by git) and runs it with the arguments given. Everything the Go
# toolchain writes — build cache, temporary files — stays under that
# directory, so a run reads and writes only inside its checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: run from the root of a full checkout (bench/ builds against the repository's packages)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
