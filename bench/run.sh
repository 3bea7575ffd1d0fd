#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload tcp4k_randread --seed 42 --seconds 12 --trace 0
#
# It builds oafbench from source and runs it with the arguments given. The
# binary, the go build cache and trace.json all stay under .bench_build in the
# checkout: nothing is read or written outside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

# A private HOME keeps the go command's own files (build cache, module cache,
# its telemetry counters) inside the checkout too. -mod=mod lets a go.mod whose
# go line has fallen behind the root module's still build.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" \
GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$root/bench" -o "$build/oafbench" ./oafbench

cd "$root"
exec "$build/oafbench" -trace-out "$build/trace.json" "$@"
